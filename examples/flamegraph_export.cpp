// polyprof as a tool: profile any mini-Rodinia benchmark by name and dump
// the full feedback bundle — the annotated flame graph (SVG + ASCII), the
// per-region metrics, and the proposed post-transformation AST.
//
//   $ ./flamegraph_export nw
//   $ ./flamegraph_export            # lists available benchmarks
//
// A missing or unknown benchmark name prints the usage line with the
// available benchmarks on stderr and exits 2.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/pipeline.hpp"
#include "feedback/flamegraph.hpp"
#include "workloads/workloads.hpp"

using namespace pp;

int main(int argc, char** argv) {
  const auto& names = workloads::rodinia_names();
  if (argc < 2 ||
      std::find(names.begin(), names.end(), argv[1]) == names.end()) {
    std::fprintf(stderr, "usage: %s <benchmark>\navailable:", argv[0]);
    for (const auto& n : names) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  workloads::Workload w = workloads::make_rodinia(argv[1]);
  std::printf("profiling %s ...\n", w.name.c_str());
  core::Pipeline pipe(w.module);
  core::ProfileResult r = pipe.run();

  std::string svg_name = w.name + "_flamegraph.svg";
  for (char& c : svg_name)
    if (c == '+') c = 'p';
  std::string svg = feedback::render_flamegraph_svg(
      r.schedule_tree, &w.module, {.title = w.name + " (poly-prof)"});
  if (FILE* f = std::fopen(svg_name.c_str(), "w")) {
    std::fwrite(svg.data(), 1, svg.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n\n", svg_name.c_str());
  }

  std::printf("%s\n",
              feedback::render_flamegraph_ascii(r.schedule_tree, &w.module)
                  .c_str());
  std::printf("%s\n", core::full_report(r).c_str());
  return 0;
}
