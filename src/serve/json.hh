/**
 * @file
 * JsonValue under its former serve-layer name. The class lives in
 * common/json.hh; this header stays only because bench/dcgbench
 * includes it and names serve::JsonValue.
 */

#ifndef DCG_SERVE_JSON_HH
#define DCG_SERVE_JSON_HH

#include "common/json.hh"

namespace dcg::serve {
using dcg::JsonValue;
} // namespace dcg::serve

#endif // DCG_SERVE_JSON_HH
