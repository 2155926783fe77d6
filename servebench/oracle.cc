// sb_oracle: the reference answers for the serving benchmark's output
// check.
//
//   sb_oracle --edges FILE [--updates FILE] [--epochs FILE]
//
// Reads the benchmark's edge list (identity labels, "u v" per line, '#'
// comments) and, optionally, its update script ("+ u v" / "- u v" lines,
// one blank line closing each batch; batch k produces epoch k). Replays the
// batches on its own adjacency copy -- not on the program's VersionedGraph,
// which is under test -- and, for every epoch listed in --epochs (default:
// epoch 0 only), prints one JSON line with the graph shape, the skyline and
// the deterministic stats of a cold core::Solve (filter-refine) of the
// graph at that epoch.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/solver.h"
#include "graph/graph.h"

namespace {

using nsky::graph::VertexId;

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "sb_oracle: " << message << "\n";
  std::exit(2);
}

struct Update {
  bool insert;
  VertexId u;
  VertexId v;
};

std::vector<std::vector<VertexId>> ReadEdges(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  uint64_t max_id = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t u = 0;
    uint64_t v = 0;
    if (!(fields >> u >> v) || u == v || u > UINT32_MAX || v > UINT32_MAX) {
      Die("bad edge line '" + line + "'");
    }
    edges.emplace_back(u, v);
    max_id = std::max({max_id, u, v});
  }
  std::vector<std::vector<VertexId>> adj(edges.empty() ? 0 : max_id + 1);
  for (const auto& [u, v] : edges) {
    adj[u].push_back(static_cast<VertexId>(v));
    adj[v].push_back(static_cast<VertexId>(u));
  }
  for (auto& row : adj) {
    std::sort(row.begin(), row.end());
    if (std::adjacent_find(row.begin(), row.end()) != row.end()) {
      Die("duplicate edge in " + path);
    }
  }
  return adj;
}

std::vector<std::vector<Update>> ReadBatches(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  std::vector<std::vector<Update>> batches(1);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      if (!batches.back().empty()) batches.emplace_back();
      continue;
    }
    std::istringstream fields(line);
    char op = 0;
    uint64_t u = 0;
    uint64_t v = 0;
    if (!(fields >> op >> u >> v) || (op != '+' && op != '-') ||
        u > UINT32_MAX || v > UINT32_MAX) {
      Die("bad update line '" + line + "'");
    }
    batches.back().push_back(
        {op == '+', static_cast<VertexId>(u), static_cast<VertexId>(v)});
  }
  if (batches.back().empty()) batches.pop_back();
  return batches;
}

// Applies one update to a sorted adjacency row; dies unless it is
// effective, because every scripted update is generated to be.
void Toggle(std::vector<VertexId>* row, VertexId other, bool insert) {
  auto it = std::lower_bound(row->begin(), row->end(), other);
  const bool present = it != row->end() && *it == other;
  if (present == insert) Die("scripted update is not effective");
  if (insert) {
    row->insert(it, other);
  } else {
    row->erase(it);
  }
}

nsky::graph::Graph ToGraph(const std::vector<std::vector<VertexId>>& adj) {
  std::vector<uint64_t> offsets(adj.size() + 1, 0);
  std::vector<VertexId> flat;
  for (size_t u = 0; u < adj.size(); ++u) {
    flat.insert(flat.end(), adj[u].begin(), adj[u].end());
    offsets[u + 1] = flat.size();
  }
  auto g = nsky::graph::Graph::FromCsr(static_cast<VertexId>(adj.size()),
                                       std::move(offsets), std::move(flat));
  if (!g.ok()) Die("invalid graph: " + g.status().ToString());
  return std::move(g).value();
}

void PrintEpoch(uint64_t epoch, const nsky::graph::Graph& g,
                const nsky::core::SkylineResult& r) {
  std::string out = "{\"epoch\":" + std::to_string(epoch) +
                    ",\"n\":" + std::to_string(g.NumVertices()) +
                    ",\"m\":" + std::to_string(g.NumEdges()) +
                    ",\"skyline\":[";
  for (size_t i = 0; i < r.skyline.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(r.skyline[i]);
  }
  const auto& s = r.stats;
  out += "],\"stats\":{\"candidate_count\":" +
         std::to_string(s.candidate_count) +
         ",\"pairs_examined\":" + std::to_string(s.pairs_examined) +
         ",\"bloom_prunes\":" + std::to_string(s.bloom_prunes) +
         ",\"degree_prunes\":" + std::to_string(s.degree_prunes) +
         ",\"inclusion_tests\":" + std::to_string(s.inclusion_tests) +
         ",\"nbr_elements_scanned\":" +
         std::to_string(s.nbr_elements_scanned) +
         ",\"aux_peak_bytes\":" + std::to_string(s.aux_peak_bytes) + "}}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string edges_path;
  std::string updates_path;
  std::string epochs_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--edges") {
      edges_path = value;
    } else if (key == "--updates") {
      updates_path = value;
    } else if (key == "--epochs") {
      epochs_path = value;
    } else {
      Die("unknown flag " + key);
    }
  }
  if (edges_path.empty() || argc % 2 != 1) {
    Die("usage: sb_oracle --edges FILE [--updates FILE] [--epochs FILE]");
  }
  std::vector<std::vector<VertexId>> adj = ReadEdges(edges_path);
  std::vector<std::vector<Update>> batches;
  if (!updates_path.empty()) batches = ReadBatches(updates_path);
  std::set<uint64_t> wanted = {0};
  if (!epochs_path.empty()) {
    wanted.clear();
    std::ifstream in(epochs_path);
    if (!in) Die("cannot open " + epochs_path);
    uint64_t e = 0;
    while (in >> e) wanted.insert(e);
  }
  if (!wanted.empty() && *wanted.rbegin() > batches.size()) {
    Die("epoch " + std::to_string(*wanted.rbegin()) + " is past the script");
  }

  const nsky::core::SolverOptions options;  // filter-refine, 1 thread
  for (uint64_t epoch = 0; !wanted.empty(); ++epoch) {
    if (epoch > 0) {
      for (const Update& up : batches[epoch - 1]) {
        if (up.u >= adj.size() || up.v >= adj.size() || up.u == up.v) {
          Die("scripted update out of range");
        }
        Toggle(&adj[up.u], up.v, up.insert);
        Toggle(&adj[up.v], up.u, up.insert);
      }
    }
    if (wanted.erase(epoch) == 0) continue;
    const nsky::graph::Graph g = ToGraph(adj);
    PrintEpoch(epoch, g, nsky::core::Solve(g, options));
  }
  return 0;
}
