/**
 * @file
 * Experiments E1-E4 (paper section 3.2): the cost of supporting a
 * k-permutation on the RMB against the hypercube family, the fat
 * tree and the mesh.  E1 counts links, E2 wire cross points, E3 the
 * VLSI layout area and E4 the bisection bandwidth; every number comes
 * from the closed forms in analysis/cost_model.
 */

#include <iostream>

#include "analysis/cost_model.hh"
#include "bench/bench_util.hh"
#include "common/bitutils.hh"
#include "common/table.hh"

int
main(int argc, char **argv)
{
    using namespace rmb;
    using namespace rmb::analysis;
    using TT = TextTable;

    bench::Harness h(argc, argv, "E1-E4",
                     "links, cross points, area and bisection bandwidth"
                     " per architecture (section 3.2)");
    const auto ratio = [](std::uint64_t a, std::uint64_t b, int digits) {
        return TT::num(static_cast<double>(a) / static_cast<double>(b),
                       digits);
    };

    // E1: links, k from 2 up to 2 log N.
    for (std::uint64_t n : {64ull, 256ull, 1024ull}) {
        TT t("links to support a k-permutation, N = " + std::to_string(n),
             {"k", "RMB", "Hypercube", "EHC", "GFC", "FatTree", "Mesh"});
        for (std::uint64_t k = 2; k <= 2 * log2Floor(n); k *= 2)
            t.addRow({TT::num(k), TT::num(rmbCosts(n, k).links),
                      TT::num(hypercubeCosts(n).links),
                      TT::num(ehcCosts(n).links),
                      TT::num(gfcCosts(n, k).links),
                      TT::num(fatTreeCosts(n, k).links),
                      TT::num(meshCosts(n, k).links)});
        h.table(t);
    }

    // E4: bisection bandwidth.
    TT b("bisection bandwidth (units of link bandwidth B)",
         {"N", "k", "RMB (= k*B, paper)", "Hypercube", "EHC", "FatTree",
          "Mesh"});
    for (std::uint64_t n : {64ull, 256ull})
        for (std::uint64_t k : {4ull, 8ull})
            b.addRow({TT::num(n), TT::num(k),
                      TT::num(rmbCosts(n, k).bisection),
                      TT::num(hypercubeCosts(n).bisection),
                      TT::num(ehcCosts(n).bisection),
                      TT::num(fatTreeCosts(n, k).bisection),
                      TT::num(meshCosts(n, k).bisection)});
    h.table(b);

    // E2: cross points.
    for (std::uint64_t n : {64ull, 256ull, 1024ull}) {
        TT t("cross points, N = " + std::to_string(n),
             {"k", "RMB (3Nk)", "Hypercube", "EHC", "FatTree",
              "Mesh (16Nk)", "RMB/EHC"});
        for (std::uint64_t k = 2; k <= 2 * log2Floor(n); k *= 2) {
            const auto rmb = rmbCosts(n, k).crossPoints;
            const auto ehc = ehcCosts(n).crossPoints;
            t.addRow({TT::num(k), TT::num(rmb),
                      TT::num(hypercubeCosts(n).crossPoints), TT::num(ehc),
                      TT::num(fatTreeCosts(n, k).crossPoints),
                      TT::num(meshCosts(n, k).crossPoints),
                      ratio(rmb, ehc, 3)});
        }
        h.table(t);
    }

    // E3: layout area at k = 8.
    TT a("layout area (unit squares), k = 8 permutation capability",
         {"N", "k", "RMB (Nk)", "Hypercube (N^2)", "FatTree (12Nk)",
          "Mesh (Nk)", "Hypercube/RMB"});
    for (std::uint64_t n : {16ull, 64ull, 256ull, 1024ull, 4096ull}) {
        const std::uint64_t k = 8;
        const auto rmb = rmbCosts(n, k).area;
        const auto hc = hypercubeCosts(n).area;
        a.addRow({TT::num(n), TT::num(k), TT::num(rmb), TT::num(hc),
                  TT::num(fatTreeCosts(n, k).area),
                  TT::num(meshCosts(n, k).area), ratio(hc, rmb, 1)});
    }
    h.table(a);

    std::cout << "Paper shape check: RMB links = N*k exactly (the fat"
                 " tree needs fewer, N*log2 k + N - 2k); for k = log N"
                 " the RMB/EHC cross-point ratio stays well below 1 and"
                 " shrinks with N; the hypercube/RMB area ratio grows"
                 " ~ N / log N, and the fat tree costs ~12x the RMB's"
                 " area at equal (N, k).\n";
    return 0;
}
