/**
 * @file
 * dcglint — project-specific static checks (see src/lint/lint.hh).
 *
 * Usage:
 *   dcglint [--root=DIR] [--check=name[,name...]] [--require-anchors]
 *           [--format=text|json|sarif] [--baseline=FILE]
 *           [--only=file[,file...]] [--list-checks[=names]]
 *
 * Exit codes: 0 clean, 1 findings, 2 configuration error. CI and the
 * repo ctest run `dcglint --root=<repo> --require-anchors` so a
 * renamed anchor file fails loudly instead of silently passing.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/options.hh"
#include "lint/lint.hh"
#include "lint/registry.hh"

namespace {

/** Split a comma list; empty segments are a usage error (caller
 *  checks the returned flag). */
bool
splitCommaList(std::string csv, std::vector<std::string> &out)
{
    if (csv.empty())
        return false;
    while (true) {
        const std::size_t comma = csv.find(',');
        const std::string item = csv.substr(0, comma);
        if (item.empty())
            return false;
        out.push_back(item);
        if (comma == std::string::npos)
            return true;
        csv.erase(0, comma + 1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    dcg::Options opts(argc, argv,
                      {"root", "check", "require-anchors", "format",
                       "baseline", "only", "list-checks", "help"});

    if (opts.has("help")) {
        std::cout <<
            "dcglint [--root=DIR (default .)]\n"
            "        [--check=name[,name...] (default: all; known: " +
                dcg::lint::checks().joined() + ")]\n"
            "        [--require-anchors (missing anchor file = error)]\n"
            "        [--format=text|json|sarif (default text)]\n"
            "        [--baseline=FILE (suppress known findings)]\n"
            "        [--only=file[,file...] (report only these "
                "root-relative files)]\n"
            "        [--list-checks[=names] (describe the registered "
                "checks)]\n";
        return 0;
    }
    if (opts.has("list-checks")) {
        const bool namesOnly =
            opts.getString("list-checks", "") == "names";
        for (const dcg::lint::CheckInfo &info :
             dcg::lint::checks().catalog()) {
            if (namesOnly)
                std::cout << info.name << '\n';
            else
                std::cout << info.name << " — " << info.description
                          << '\n';
        }
        return 0;
    }

    dcg::lint::LintOptions lopts;
    lopts.root = opts.getString("root", ".");
    lopts.requireAnchors = opts.has("require-anchors");
    lopts.baselineFile = opts.getString("baseline", "");

    // --check: reject empty or unknown names loudly (same UX as
    // dcgsim --scheme), listing the registered catalog.
    if (opts.has("check") &&
        !splitCommaList(opts.getString("check", ""), lopts.checks)) {
        std::cerr << "dcglint: --check needs a non-empty check name "
                     "(known: "
                  << dcg::lint::checks().joined() << ")\n";
        return 2;
    }
    for (const std::string &name : lopts.checks) {
        if (!dcg::lint::checks().find(name)) {
            std::cerr << "dcglint: unknown check '" << name
                      << "' (known: "
                      << dcg::lint::checks().joined() << ")\n";
            return 2;
        }
    }

    if (opts.has("only") &&
        !splitCommaList(opts.getString("only", ""), lopts.onlyFiles)) {
        std::cerr << "dcglint: --only needs a non-empty file list\n";
        return 2;
    }

    const std::string format = opts.getString("format", "text");
    if (format == "text") {
        lopts.format = dcg::lint::OutputFormat::Text;
    } else if (format == "json") {
        lopts.format = dcg::lint::OutputFormat::Json;
    } else if (format == "sarif") {
        lopts.format = dcg::lint::OutputFormat::Sarif;
    } else {
        std::cerr << "dcglint: unknown format '" << format
                  << "' (known: text|json|sarif)\n";
        return 2;
    }

    return dcg::lint::runDcglint(lopts, std::cout);
}
