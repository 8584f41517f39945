/**
 * @file
 * Machine-readable result export: CSV and JSON writers (plus a JSON
 * reader and a schema description) for RunResult collections, so
 * experiment output can feed plotting scripts and downstream tooling
 * without scraping the text tables.
 *
 * The JSON side is a schema mapping over common/json.hh:
 * resultToJson() / resultFromJson() hold the one RunResult field list,
 * and the results files, the result store and the dcgserved wire all
 * go through them. Doubles are written with max_digits10 precision,
 * so writeResultsJson -> readResultsJson round-trips bit-exactly.
 */

#ifndef DCG_SIM_REPORT_HH
#define DCG_SIM_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/simulator.hh"

namespace dcg {

/**
 * One result as a JSON object: headline metrics, grouped component
 * energies, utilisations, the full per-component breakdown and any
 * captured extra statistics (the "extra" member only when non-empty).
 */
JsonValue resultToJson(const RunResult &r);

/**
 * Inverse of resultToJson(). False and @p err (prefixed
 * "result JSON: ") on a wrong-kind value, an unknown field, group or
 * component key, or an "instructions"/"cycles" value that is not a
 * non-negative integer fitting uint64_t. Absent fields keep their
 * RunResult defaults; @p out is untouched on failure.
 */
bool resultFromJson(const JsonValue &v, RunResult &out, std::string &err);

/** An array of resultToJson() objects. */
JsonValue resultsToJson(const std::vector<RunResult> &results);

/** Inverse of resultsToJson(); same errors as resultFromJson(). */
bool resultsFromJson(const JsonValue &v, std::vector<RunResult> &out,
                     std::string &err);

/** Column-stable CSV with a header row. */
void writeResultsCsv(const std::vector<RunResult> &results,
                     std::ostream &os);

/**
 * resultsToJson() laid out one result per entry: the scalar members
 * share the entry's first line, and each object member starts a line
 * of its own.
 */
void writeResultsJson(const std::vector<RunResult> &results,
                      std::ostream &os);

/**
 * Parse the whole of @p is as a resultsToJson() array; fatal() on
 * malformed input (see resultFromJson() for what is rejected).
 * Trailing bytes after the closing bracket are malformed input.
 */
std::vector<RunResult> readResultsJson(std::istream &is);

/**
 * Non-terminating variant of readResultsJson() for callers that must
 * survive malformed input (the serve-layer result store treats a
 * truncated or corrupt record as a cache miss). Returns false and
 * leaves @p out untouched on failure; @p error (if non-null) receives
 * a one-line description.
 */
bool tryReadResultsJson(std::istream &is, std::vector<RunResult> &out,
                        std::string *error = nullptr);

/**
 * Machine-readable description of the JSON result schema (field
 * names, types, units), for consumers that validate before parsing.
 */
void writeResultsSchemaJson(std::ostream &os);

/** Convenience: write to a file path; fatal() on I/O failure. */
void writeResultsCsvFile(const std::vector<RunResult> &results,
                         const std::string &path);
void writeResultsJsonFile(const std::vector<RunResult> &results,
                          const std::string &path);

/** Convenience: read a JSON result file; fatal() on I/O failure. */
std::vector<RunResult> readResultsJsonFile(const std::string &path);

/** One entry of the registry-statistic catalog. */
struct StatCatalogEntry
{
    const char *name;  ///< registry name, e.g. "core.ipc"
    const char *desc;  ///< what the value means
};

/**
 * Catalog of every statistic the simulator can register, across all
 * gating schemes. This is the authoritative name list for the
 * "extra" result field (--capture serializes registry stats by these
 * names), and `dcglint` enforces that every stats.counter(...)-style
 * registration in src/ appears here — a stat missing from the catalog
 * would be invisible to the result schema. sim/report_test.cc checks
 * the other direction: every catalog name is actually registered by
 * some scheme, so the list cannot rot.
 */
const std::vector<StatCatalogEntry> &statRegistryCatalog();

} // namespace dcg

#endif // DCG_SIM_REPORT_HH
