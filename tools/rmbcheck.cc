/**
 * @file
 * rmbcheck - bounded explicit-state model checker for the RMB
 * protocol (docs/MODELCHECK.md).
 *
 * Composes the simulator's own pure rules (core::stepCycle, the
 * Figure-6/7 datapath predicates, Table 1 legality) into a ring of N
 * INCs by k segments and exhaustively enumerates every reachable
 * state, checking safety invariants per state and liveness over the
 * full graph.  Exit codes: 0 clean, 1 counterexample printed,
 * 2 usage error, 3 state budget exhausted.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "check/runner.hh"
#include "common/flags.hh"

namespace {

void
usage(std::ostream &os)
{
    os << "usage: rmbcheck [options]\n"
          "\n"
          "  --nodes N          ring size (2..8, default 4)\n"
          "  --buses K          segments per gap (1..8, default 3)\n"
          "  --messages M       concurrent messages (1..4, "
          "default 2)\n"
          "  --cycle-only       check only the odd/even handshake "
          "layer\n"
          "  --datapath-only    check only the bus/compaction "
          "layer\n"
          "  --header POLICY    lowest | straight (default "
          "lowest)\n"
          "  --mutate NAME      check a deliberately broken rule "
          "reading:\n"
          "                     oc-rule-bodytext | "
          "no-handshake-gates |\n"
          "                     move-ignore-neighbors\n"
          "  --max-states X     state budget (default 1000000; "
          "exceeding\n"
          "                     it exits 3, never a silent pass)\n"
          "  --all              sweep N in {3..6} x k in {2..4}, "
          "both\n"
          "                     layers, unmutated rules\n"
          "  --help             this text\n"
          "\n"
          "exit codes: 0 clean, 1 violation, 2 usage, "
          "3 truncated\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using rmb::check::CheckConfig;
    using rmb::check::Layers;
    using rmb::check::RunStatus;
    using rmb::common::flagUint;

    CheckConfig cfg;
    Layers layers = Layers::Both;
    std::string mutate;
    bool all = false;

    const auto need_value = [&](int i) {
        if (i + 1 >= argc) {
            std::cerr << "rmbcheck: missing value for " << argv[i]
                      << "\n";
            std::exit(static_cast<int>(RunStatus::Usage));
        }
        return std::string(argv[i + 1]);
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--nodes") {
            cfg.nodes = flagUint<std::uint32_t>("rmbcheck", arg,
                                                need_value(i++));
        } else if (arg == "--buses") {
            cfg.buses = flagUint<std::uint32_t>("rmbcheck", arg,
                                                need_value(i++));
        } else if (arg == "--messages") {
            cfg.messages = flagUint<std::uint32_t>("rmbcheck", arg,
                                                   need_value(i++));
        } else if (arg == "--max-states") {
            cfg.maxStates = flagUint<std::size_t>("rmbcheck", arg,
                                                  need_value(i++));
        } else if (arg == "--cycle-only") {
            layers = Layers::CycleOnly;
        } else if (arg == "--datapath-only") {
            layers = Layers::DatapathOnly;
        } else if (arg == "--header") {
            const std::string v = need_value(i++);
            if (v == "lowest") {
                cfg.headerPolicy =
                    rmb::core::HeaderPolicy::PreferLowest;
            } else if (v == "straight") {
                cfg.headerPolicy =
                    rmb::core::HeaderPolicy::PreferStraight;
            } else {
                std::cerr << "rmbcheck: unknown header policy '" << v
                          << "'\n";
                return static_cast<int>(RunStatus::Usage);
            }
        } else if (arg == "--mutate") {
            mutate = need_value(i++);
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return static_cast<int>(RunStatus::Clean);
        } else {
            std::cerr << "rmbcheck: unknown option '" << arg
                      << "'\n";
            usage(std::cerr);
            return static_cast<int>(RunStatus::Usage);
        }
    }

    if (!rmb::check::applyMutation(mutate, cfg)) {
        std::cerr << "rmbcheck: unknown mutation '" << mutate
                  << "'\n";
        return static_cast<int>(RunStatus::Usage);
    }
    if (cfg.nodes < 2 || cfg.nodes > 8 || cfg.buses < 1 ||
        cfg.buses > 8 || cfg.messages < 1 || cfg.messages > 4) {
        std::cerr << "rmbcheck: configuration out of range (see "
                     "--help)\n";
        return static_cast<int>(RunStatus::Usage);
    }

    if (all)
        return static_cast<int>(
            rmb::check::runAll(cfg.maxStates, std::cout));
    return static_cast<int>(
        rmb::check::runCheck(cfg, layers, std::cout));
}
