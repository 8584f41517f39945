#include "lint/lint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "lint/context.hh"
#include "lint/registry.hh"

namespace fs = std::filesystem;

namespace dcg::lint {

namespace {

void
sortDiagnostics(std::vector<Diagnostic> &diags)
{
    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.check != b.check)
                      return a.check < b.check;
                  return a.message < b.message;
              });
}

/**
 * Load a baseline file into the set of suppressed baselineKey()
 * strings. '#' starts a comment; blank lines are skipped. Returns
 * false when @p path cannot be read.
 */
bool
loadBaseline(const std::string &path, std::set<std::string> &keys)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::string line;
    while (std::getline(is, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        // Trim without pulling in lexer.hh: keys are exact strings.
        const std::size_t b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        const std::size_t e = line.find_last_not_of(" \t\r");
        keys.insert(line.substr(b, e - b + 1));
    }
    return true;
}

} // namespace

std::vector<Diagnostic>
runChecks(const LintOptions &opts)
{
    std::vector<Diagnostic> all;

    // Resolve the selection against the registry first: unknown names
    // surface as config diagnostics instead of silently passing.
    std::vector<std::string> selected;
    if (opts.checks.empty()) {
        selected = checks().names();
    } else {
        for (const std::string &name : opts.checks) {
            if (checks().find(name)) {
                selected.push_back(name);
            } else {
                all.push_back({"", 0, "config",
                               "unknown check '" + name +
                                   "' (known: " + checks().joined() +
                                   ")"});
            }
        }
    }

    const Context ctx(opts);
    if (!ctx.rootOk()) {
        all.push_back({opts.root, 0, "config",
                       "root '" + opts.root +
                           "' is not a directory"});
        sortDiagnostics(all);
        return all;
    }

    for (const std::string &name : selected) {
        const auto *check = checks().find(name);
        if (!ctx.anchorsOk(check->info.anchors, name, all))
            continue;  // missing anchor: skip (config diag if required)
        std::vector<Diagnostic> d = check->fn(ctx);
        for (Diagnostic &diag : d) {
            if (!ctx.allowMarked(diag.file, diag.line, diag.check))
                all.push_back(std::move(diag));
        }
    }
    sortDiagnostics(all);
    return all;
}

std::vector<Diagnostic>
runCheck(const std::string &name, const LintOptions &opts)
{
    LintOptions one = opts;
    one.checks = {name};
    return runChecks(one);
}

std::string
formatDiagnostic(const Diagnostic &d)
{
    std::ostringstream os;
    os << d.file;
    if (d.line > 0)
        os << ':' << d.line;
    os << ": [" << d.check << "] " << d.message;
    return os.str();
}

std::string
baselineKey(const Diagnostic &d)
{
    return d.file + ": [" + d.check + "] " + d.message;
}

std::string
toJson(const std::vector<Diagnostic> &diags)
{
    std::ostringstream os;
    os << "{\n  \"findings\": [";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        os << (i ? "," : "") << "\n    {\"file\": "
           << JsonValue::encodeString(d.file) << ", \"line\": " << d.line
           << ", \"check\": " << JsonValue::encodeString(d.check)
           << ", \"message\": " << JsonValue::encodeString(d.message)
           << "}";
    }
    if (!diags.empty())
        os << "\n  ";
    os << "],\n  \"count\": " << diags.size() << "\n}\n";
    return os.str();
}

std::string
toSarif(const std::vector<Diagnostic> &diags)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"$schema\": "
          "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
       << "  \"version\": \"2.1.0\",\n"
       << "  \"runs\": [\n"
       << "    {\n"
       << "      \"tool\": {\n"
       << "        \"driver\": {\n"
       << "          \"name\": \"dcglint\",\n"
       << "          \"rules\": [";
    // One rule per registered check plus the synthetic "config" rule,
    // so every result's ruleId resolves.
    bool first = true;
    auto rule = [&](const std::string &id, const std::string &desc) {
        os << (first ? "" : ",") << "\n            {\"id\": "
           << JsonValue::encodeString(id)
           << ", \"shortDescription\": {\"text\": "
           << JsonValue::encodeString(desc) << "}}";
        first = false;
    };
    for (const CheckInfo &info : checks().catalog())
        rule(info.name, info.description);
    rule("config", "dcglint configuration error");
    os << "\n          ]\n"
       << "        }\n"
       << "      },\n"
       << "      \"results\": [";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        os << (i ? "," : "") << "\n        {\n"
           << "          \"ruleId\": " << JsonValue::encodeString(d.check)
           << ",\n"
           << "          \"level\": \"error\",\n"
           << "          \"message\": {\"text\": "
           << JsonValue::encodeString(d.message) << "},\n"
           << "          \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": "
           << JsonValue::encodeString(d.file) << "}";
        if (d.line > 0)
            os << ", \"region\": {\"startLine\": " << d.line << "}";
        os << "}}]\n        }";
    }
    if (!diags.empty())
        os << "\n      ";
    os << "]\n    }\n  ]\n}\n";
    return os.str();
}

int
runDcglint(const LintOptions &opts, std::ostream &out)
{
    std::error_code ec;
    if (!fs::is_directory(opts.root, ec)) {
        out << "dcglint: root '" << opts.root
            << "' is not a directory\n";
        return 2;
    }
    for (const std::string &name : opts.checks) {
        if (!checks().find(name)) {
            out << "dcglint: unknown check '" << name
                << "' (known: " << checks().joined() << ")\n";
            return 2;
        }
    }
    std::set<std::string> baseline;
    if (!opts.baselineFile.empty() &&
        !loadBaseline(opts.baselineFile, baseline)) {
        out << "dcglint: cannot read baseline '" << opts.baselineFile
            << "'\n";
        return 2;
    }

    std::vector<Diagnostic> diags = runChecks(opts);

    // Report filters: config errors always survive them — a broken
    // configuration must not be maskable by a baseline entry or a
    // changed-files list.
    std::size_t suppressed = 0;
    std::vector<Diagnostic> kept;
    for (Diagnostic &d : diags) {
        if (d.check != "config") {
            if (baseline.count(baselineKey(d))) {
                ++suppressed;
                continue;
            }
            if (!opts.onlyFiles.empty() &&
                std::find(opts.onlyFiles.begin(), opts.onlyFiles.end(),
                          d.file) == opts.onlyFiles.end())
                continue;
        }
        kept.push_back(std::move(d));
    }

    bool config_error = false;
    for (const Diagnostic &d : kept)
        if (d.check == "config")
            config_error = true;

    switch (opts.format) {
      case OutputFormat::Json:
        out << toJson(kept);
        break;
      case OutputFormat::Sarif:
        out << toSarif(kept);
        break;
      case OutputFormat::Text:
        for (const Diagnostic &d : kept)
            out << formatDiagnostic(d) << '\n';
        if (config_error) {
            // fall through to the return below; no summary line
        } else if (!kept.empty()) {
            out << "dcglint: " << kept.size() << " finding(s)";
            if (suppressed)
                out << " (" << suppressed << " baselined)";
            out << '\n';
        } else {
            out << "dcglint: clean";
            if (suppressed)
                out << " (" << suppressed << " baselined)";
            out << '\n';
        }
        break;
    }

    if (config_error)
        return 2;
    return kept.empty() ? 0 : 1;
}

} // namespace dcg::lint
