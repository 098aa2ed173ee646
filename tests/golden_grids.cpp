// Golden CI-scale grids: runs the offline grid (Tables I-III) and the AV
// grid (Fig. 3) under the knobs tests/CMakeLists.txt sets (MPASS_N=4,
// budget 30, the CI zoo, no cache) and compares every cell's
// result_digest(), plus the ASR/AVQ/APR tables printed from the same cells,
// with tests/golden/ci_grids.txt. The tables only make a diff readable; the
// digests cover every result field and the AE bytes.
//
// On a mismatch the whole actual file is printed. A change that moves
// results on purpose replaces the golden file with that output.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "util/table.hpp"

namespace {

using mpass::harness::CellStats;

// First-seen order of `field` over the cells (rows follow targets, columns
// attacks, as the grid produced them).
std::vector<std::string> distinct(const std::vector<CellStats>& cells,
                                  std::string CellStats::*field) {
  std::vector<std::string> out;
  for (const CellStats& c : cells)
    if (std::find(out.begin(), out.end(), c.*field) == out.end())
      out.push_back(c.*field);
  return out;
}

std::string render(const char* grid, const std::vector<CellStats>& cells) {
  std::string out;
  char buf[256];
  for (const CellStats& c : cells) {
    std::snprintf(buf, sizeof(buf),
                  "%s %-8s %-10s n=%zu successes=%zu %016llx\n", grid,
                  c.attack.c_str(), c.target.c_str(), c.n, c.successes,
                  static_cast<unsigned long long>(c.result_digest()));
    out += buf;
  }
  const std::vector<std::string> attacks = distinct(cells, &CellStats::attack);
  const std::vector<std::string> targets = distinct(cells, &CellStats::target);
  const std::pair<const char*, double CellStats::*> metrics[] = {
      {"ASR (%)", &CellStats::asr},
      {"AVQ", &CellStats::avq},
      {"APR (%)", &CellStats::apr}};
  for (const auto& [name, metric] : metrics) {
    mpass::util::Table table(std::string(grid) + " " + name);
    std::vector<std::string> header = {"Models"};
    header.insert(header.end(), attacks.begin(), attacks.end());
    table.header(header);
    for (const std::string& t : targets) {
      std::vector<std::string> row = {t};
      for (const std::string& a : attacks)
        for (const CellStats& c : cells)
          if (c.attack == a && c.target == t)
            row.push_back(mpass::util::Table::num(c.*metric, 1));
      table.row(row);
    }
    out += table.render();
  }
  return out;
}

}  // namespace

int main() {
  using namespace mpass;
  const auto cfg = harness::ExperimentConfig::from_env();
  char head[128];
  std::snprintf(head, sizeof(head), "# n=%zu budget=%zu\n", cfg.n_samples,
                cfg.max_queries);
  const std::string actual = head +
                             render("offline", harness::offline_grid(cfg)) +
                             render("avs", harness::av_grid(cfg));

  std::ifstream in(MPASS_GOLDEN_FILE, std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  if (in && golden.str() == actual) {
    std::printf("golden grids match %s\n", MPASS_GOLDEN_FILE);
    return 0;
  }
  std::printf("golden grids differ from %s; actual file:\n%s",
              MPASS_GOLDEN_FILE, actual.c_str());
  return 1;
}
