/**
 * @file
 * rmblint - the project's compiler-free static analyzer.
 *
 * Tokenises every source file under src/, tools/, bench/, tests/
 * and examples/ and runs the house checks (determinism-hazard,
 * layering, env-hook, metric-name, header-guard; docs/LINT.md is
 * the catalog).  No compiler, no network, no configuration beyond
 * the flags below - it runs in milliseconds from CTest and CI.
 *
 * Usage: rmblint --all | --check NAME [--check NAME ...]
 *                [--root DIR] [--json [FILE]] [--list] [--help]
 *
 * A finding is suppressed only inline, by a justified
 * `// rmblint:allow(<check>): reason` comment at its site.
 *
 * Exit 0: clean.  Exit 1: findings.  Exit 2: usage / IO error.
 * Same convention as rmbcheck.
 */

#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "common/table.hh"
#include "lint/checks.hh"
#include "lint/source.hh"

namespace {

void
usageText(std::ostream &os)
{
    os << "usage: rmblint --all | --check NAME [--check NAME ...]\n"
           "               [--root DIR] [--json [FILE]] [--list]\n"
           "\n"
           "  --all                run every check\n"
           "  --check NAME         run one check (repeatable)\n"
           "  --root DIR           tree to scan (default: .)\n"
           "  --json [FILE]        machine-readable findings\n"
           "  --list               list available checks\n";
}

int
usage()
{
    usageText(std::cerr);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rmb;

    bool all = false;
    bool list = false;
    bool json = false;
    std::string json_path;
    std::string root = ".";
    std::set<std::string> enabled;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](std::string &into) {
            if (i + 1 >= argc)
                return false;
            into = argv[++i];
            return true;
        };
        if (arg == "--help" || arg == "-h") {
            usageText(std::cout);
            return 0;
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--check") {
            std::string name;
            if (!value(name))
                return usage();
            if (lint::checkDescription(name).empty()) {
                std::cerr << "rmblint: unknown check '" << name
                          << "' (see --list)\n";
                return 2;
            }
            enabled.insert(name);
        } else if (arg == "--root") {
            if (!value(root))
                return usage();
        } else if (arg == "--json") {
            json = true;
            // Optional FILE operand: anything not flag-shaped.
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[++i];
        } else {
            return usage();
        }
    }

    if (list) {
        for (const std::string &name : lint::checkNames())
            std::cout << name << "  -  "
                      << lint::checkDescription(name) << "\n";
        return 0;
    }
    if (!all && enabled.empty())
        return usage();
    if (all)
        enabled.clear(); // empty set = every check

    const std::vector<lint::SourceFile> files = lint::loadTree(root);
    if (files.empty()) {
        std::cerr << "rmblint: no sources under '" << root
                  << "' (expected src/, tools/, bench/, tests/)\n";
        return 2;
    }

    const std::vector<lint::Finding> findings =
        lint::runChecks(files, enabled);

    if (json) {
        const std::string doc = lint::findingsToJson(findings);
        if (json_path.empty()) {
            std::cout << doc << "\n";
        } else {
            std::ofstream out(json_path);
            if (!out) {
                std::cerr << "rmblint: cannot write '" << json_path
                          << "'\n";
                return 2;
            }
            out << doc << "\n";
        }
        return findings.empty() ? 0 : 1;
    }

    if (findings.empty()) {
        std::cout << "rmblint: clean (" << files.size()
                  << " files)\n";
        return 0;
    }

    TextTable table("rmblint findings",
                    {"check", "location", "message"});
    for (const lint::Finding &f : findings) {
        table.addRow({f.check,
                      f.file + ":" + std::to_string(f.line),
                      f.message});
    }
    table.print(std::cout);
    std::cout << findings.size() << " finding(s) in " << files.size()
              << " files\n";
    return 1;
}
