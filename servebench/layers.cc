// sb_layers: per-layer timings of the serving stack, measured in-process.
//
//   sb_layers --workload read_full|mutate_full|restore_full --edges FILE
//             --snapshot FILE --scripts FILE --reps R --rounds K
//             --sessions S --spans OUT
//
// The traced half of the serving benchmark (see README.md). It calls each
// layer's public function on the run's seeded inputs -- the same edge
// list, update scripts and snapshot file the end-to-end run serves -- and
// records a span around every call: name, start, end, parent span and
// request id, kept in memory and written to --spans at exit. A layer's
// figure is the median of its spans.
//
// Each workload's traffic is replayed as sessions, each on a freshly
// started engine (a cold build from the edge list, or persist::Load for
// restore_full). --scripts holds the run's update scripts; script s
// applies to a server at epoch 0.
//   read_full    R reads, then K x (write batch k of script 0, untimed
//                read back)
//   mutate_full  K x (write batch k of script 0, read)
//   restore_full S sessions, session s writing all of script s; the first
//                one reads R times before
// Counts (filter/refine work, dirty vertices, repaired share, rendered
// bytes, snapshot sections) depend only on the inputs, so they repeat
// exactly for one seed; the harness compares them across runs.
//
// Prints one JSON object on stdout:
//   {"metrics": {name: {"value": v, "unit": u, "samples": n}, ...},
//    "checks": N, "check_failures": F, "failures": ["..."]}
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/engine_stats.h"
#include "core/prepared_graph.h"
#include "core/skyline_json.h"
#include "graph/io.h"
#include "graph/versioned_graph.h"
#include "persist/snapshot.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "server/service.h"
#include "util/json_writer.h"
#include "util/thread_pool.h"

namespace {

using nsky::graph::EdgeUpdate;
using nsky::graph::Graph;
using Batch = std::vector<EdgeUpdate>;

constexpr char kReadTarget[] = "/v1/skyline?algo=filter-refine&threads=1";

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "sb_layers: " << message << "\n";
  std::exit(2);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory span log. Begin/End may be called from several threads.
class Spans {
 public:
  struct Open {
    size_t index;
    int64_t start_ns;
  };

  Open Begin(const std::string& name, int64_t parent, uint64_t request) {
    size_t index = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      index = spans_.size();
      spans_.push_back({name, 0, 0, parent, request});
    }
    return {index, NowNs()};
  }

  // Closes the span; returns its duration in milliseconds.
  double End(const Open& open) {
    const int64_t end_ns = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[open.index].start_ns = open.start_ns;
    spans_[open.index].end_ns = end_ns;
    return static_cast<double>(end_ns - open.start_ns) / 1e6;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) Die("cannot write " + path);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}";
    }
    out << "\n]\n";
  }

 private:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // index of the enclosing span, -1 for the root
    uint64_t request;
  };
  std::mutex mu_;
  std::vector<Span> spans_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

// One request of the replayed traffic.
struct Op {
  const Batch* batch = nullptr;  // null: a read
  uint64_t epoch = 0;            // the engine's epoch once the op is done
  bool timed = true;             // false: a read-back, run but not timed
};
// The requests one freshly started engine serves.
using Session = std::vector<Op>;

struct Metric {
  double value;
  std::string unit;
  size_t samples;
};

struct Run {
  std::string workload;
  Graph graph;
  std::string snapshot_path;
  std::vector<std::vector<Batch>> scripts;
  std::vector<Session> sessions;  // point into the scripts
  size_t reps = 0;  // repetitions of the fixed-input calls
  Spans spans;
  int64_t root = -1;
  std::map<std::string, Metric> metrics;
  uint64_t checks = 0;
  uint64_t check_failures = 0;
  std::vector<std::string> failures;  // the first few, for the report

  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics[name] = {value, unit, samples};
  }
  void SetMedian(const std::string& name, const std::vector<double>& v,
                 const std::string& unit) {
    Set(name, Median(v), unit, v.size());
  }
  void Check(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++check_failures;
    if (failures.size() < 20) failures.push_back(what);
  }

  // Times `fn` as one span named `name` under `parent`.
  template <typename Fn>
  double Time(const std::string& name, int64_t parent, uint64_t request,
              Fn&& fn) {
    Spans::Open open = spans.Begin(name, parent, request);
    fn();
    return spans.End(open);
  }

  // A section span groups the calls of one phase.
  Spans::Open Section(const std::string& name) {
    return spans.Begin(name, root, 0);
  }

  // The engine as the workload's server starts it, before any query.
  std::unique_ptr<nsky::core::Engine> FreshEngine() {
    if (workload != "restore_full") {
      return std::make_unique<nsky::core::Engine>(graph);
    }
    auto loaded = nsky::persist::Load(snapshot_path);
    if (!loaded.ok()) Die("load: " + loaded.status().ToString());
    return std::move(loaded).value();
  }
};

// --- inputs ---------------------------------------------------------------

// Reads '+ u v' / '- u v' lines; a blank line closes a batch, a '=' line a
// script.
std::vector<std::vector<Batch>> ReadScripts(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  std::vector<std::vector<Batch>> scripts(1);
  Batch batch;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line == "=") {
      if (!batch.empty()) scripts.back().push_back(std::move(batch));
      batch.clear();
      if (line == "=") scripts.emplace_back();
      continue;
    }
    std::istringstream fields(line);
    char op = 0;
    uint64_t u = 0;
    uint64_t v = 0;
    if (!(fields >> op >> u >> v) || (op != '+' && op != '-')) {
      Die("bad update line '" + line + "'");
    }
    batch.push_back({static_cast<nsky::graph::VertexId>(u),
                     static_cast<nsky::graph::VertexId>(v), op == '+'});
  }
  if (!batch.empty()) scripts.back().push_back(std::move(batch));
  if (scripts.back().empty()) scripts.pop_back();
  return scripts;
}

// The POST /v1/edges body the end-to-end client sends for `batch`.
std::string PostBody(const Batch& batch) {
  std::string body = "{\"updates\":[";
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i > 0) body += ",";
    body += "{\"u\":" + std::to_string(batch[i].u) +
            ",\"v\":" + std::to_string(batch[i].v) + ",\"op\":\"" +
            (batch[i].insert ? "insert" : "delete") + "\"}";
  }
  return body + "]}";
}

std::string ReadRequestBytes() {
  return std::string("GET ") + kReadTarget +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::string PostRequestBytes(const Batch& batch) {
  const std::string body = PostBody(batch);
  return "POST /v1/edges HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

nsky::server::HttpRequest ParseRequest(const std::string& bytes) {
  nsky::server::HttpParser parser;
  if (parser.Feed(bytes) != nsky::server::HttpParser::State::kDone) {
    Die("request does not parse: " + parser.error());
  }
  return parser.request();
}

std::vector<Session> BuildSessions(const Run& run, size_t reps,
                                   size_t rounds, size_t sessions) {
  const std::vector<std::vector<Batch>>& scripts = run.scripts;
  if (scripts.empty()) Die("no update scripts");
  std::vector<Session> out(1);
  auto write = [&](Session* s, size_t script, size_t k) {
    s->push_back({&scripts[script].at(k), k + 1, true});
  };
  if (run.workload == "restore_full") {
    out.resize(std::min(sessions, scripts.size()));
    out[0].assign(reps, Op{});
    for (size_t s = 0; s < out.size(); ++s) {
      for (size_t k = 0; k < scripts[s].size(); ++k) write(&out[s], s, k);
    }
    return out;
  }
  const bool read_full = run.workload == "read_full";
  if (read_full) out[0].assign(reps, Op{});
  for (size_t k = 0; k < rounds; ++k) {
    write(&out[0], 0, k);
    out[0].push_back({nullptr, k + 1, !read_full});
  }
  return out;
}

// --- sections -------------------------------------------------------------

// Engine::ApplyUpdates and the first query of a fresh engine; the engine's
// warm share, the artifact cache's hit share and the SkylineStats work
// counters, with the engine serving exactly the workload's requests.
void EngineLayers(Run& run) {
  const Spans::Open section = run.Section("section.engine");
  const int64_t sec = static_cast<int64_t>(section.index);
  nsky::core::QueryRequest query;
  query.options.threads = 1;
  query.include_dominators = false;  // as the service asks

  // First query on fresh engines: a cold build from the edge list, or the
  // first query of a just-restored snapshot.
  std::vector<double> cold_ms;
  for (size_t i = 0; i < 7; ++i) {
    std::unique_ptr<nsky::core::Engine> fresh = run.FreshEngine();
    nsky::core::QueryResponse response;
    cold_ms.push_back(run.Time("engine.cold_execute", sec, i, [&] {
      fresh->Execute(query, &response);
    }));
    run.Check(response.ok(), "cold execute");
  }
  run.SetMedian("engine.cold_execute_ms", cold_ms, "ms");

  std::vector<double> apply_ms;
  double inclusion = 0, scanned = 0, candidates = 0, bloom = 0;
  size_t counted = 0;
  uint64_t request = 0;
  for (size_t s = 0; s < run.sessions.size(); ++s) {
    std::unique_ptr<nsky::core::Engine> engine = run.FreshEngine();
    nsky::core::QueryResponse response;
    engine->Execute(query, &response);  // the server's first query
    run.Check(response.ok(), "first execute");
    for (const Op& op : run.sessions[s]) {
      ++request;
      if (op.batch == nullptr) {
        engine->Execute(query, &response);
        run.Check(response.ok() && engine->epoch() == op.epoch, "execute");
        if (!op.timed) continue;
        const nsky::core::SkylineStats& st = response.result.stats;
        inclusion += static_cast<double>(st.inclusion_tests);
        scanned += static_cast<double>(st.nbr_elements_scanned);
        candidates += static_cast<double>(st.candidate_count);
        bloom += static_cast<double>(st.bloom_prunes);
        ++counted;
        continue;
      }
      nsky::core::Engine::MutationResult outcome;
      apply_ms.push_back(run.Time("engine.apply_updates", sec, request, [&] {
        outcome = engine->ApplyUpdates(*op.batch);
      }));
      run.Check(outcome.applied == op.batch->size() &&
                    outcome.epoch == op.epoch,
                "apply_updates to epoch " + std::to_string(op.epoch));
    }
    if (s > 0) continue;
    // Warm share and cache hit share over the first session's queries.
    const nsky::core::EngineStats stats = engine->StatsSnapshot();
    run.Set("engine.warm_ratio",
            static_cast<double>(stats.warm_queries) /
                static_cast<double>(
                    std::max<uint64_t>(stats.queries_served, 1)),
            "ratio", stats.queries_served);
    const nsky::core::PreparedGraph::CacheStats cache =
        engine->prepared().CacheStatsSnapshot();
    uint64_t hits = 0;
    uint64_t lookups = 0;
    auto add = [&](const nsky::core::PreparedGraph::ArtifactStats& a) {
      hits += a.hits;
      lookups += a.hits + a.misses;
    };
    add(cache.filter);
    add(cache.two_hop);
    add(cache.degree_order);
    add(cache.cores);
    for (const auto& [bits, a] : cache.candidate_blooms) add(a);
    for (const auto& [bits, a] : cache.full_blooms) add(a);
    run.Set("prepared.hit_ratio",
            static_cast<double>(hits) /
                static_cast<double>(std::max<uint64_t>(lookups, 1)),
            "ratio", lookups);
  }
  run.SetMedian("engine.apply_updates_ms", apply_ms, "ms");
  const double n = static_cast<double>(std::max<size_t>(counted, 1));
  run.Set("refine.inclusion_tests", inclusion / n, "count", counted);
  run.Set("refine.nbr_elements_scanned", scanned / n, "count", counted);
  run.Set("filter.candidate_count", candidates / n, "count", counted);
  run.Set("filter.bloom_prunes", bloom / n, "count", counted);
  run.spans.End(section);
}

// HTTP parse, POST-body JSON parse and response serialization: pure
// functions of their input, timed on the real request and response bytes.
void MessageLayers(Run& run, const std::string& sample_body) {
  const Spans::Open section = run.Section("section.messages");
  const int64_t sec = static_cast<int64_t>(section.index);
  const std::string request = ReadRequestBytes();
  std::vector<double> parse_us;
  for (size_t i = 0; i < run.reps * 10; ++i) {
    nsky::server::HttpParser parser;
    nsky::server::HttpParser::State state{};
    parse_us.push_back(1000.0 * run.Time("http.parse", sec, i, [&] {
      state = parser.Feed(request);
    }));
    run.Check(state == nsky::server::HttpParser::State::kDone, "http parse");
  }
  run.SetMedian("http.parse_us", parse_us, "us");

  std::vector<double> json_us;
  uint64_t i = 0;
  for (const Session& session : run.sessions) {
    for (const Op& op : session) {
      if (op.batch == nullptr) continue;
      const std::string body = PostBody(*op.batch);
      std::optional<nsky::util::JsonValue> doc;
      json_us.push_back(1000.0 * run.Time("json.parse", sec, ++i, [&] {
        doc = nsky::util::JsonParse(body);
      }));
      run.Check(doc.has_value() && doc->Find("updates") != nullptr,
                "json parse");
    }
  }
  run.SetMedian("json.parse_us", json_us, "us");

  const std::vector<std::pair<std::string, std::string>> headers = {
      {"X-Nsky-Epoch", "0"}};
  std::vector<double> serialize_us;
  size_t bytes = 0;
  for (size_t r = 0; r < run.reps * 2; ++r) {
    std::string wire;
    serialize_us.push_back(1000.0 * run.Time("http.serialize", sec, r, [&] {
      wire = nsky::server::SerializeResponse(200, "application/json",
                                             sample_body, true, headers);
    }));
    bytes = wire.size();
  }
  run.Check(bytes > sample_body.size(), "serialize");
  run.SetMedian("http.serialize_us", serialize_us, "us");
  run.spans.End(section);
}

// Warms `prepared` to the artifact set `model` holds.
void WarmLike(nsky::core::PreparedGraph& prepared,
              const nsky::core::PreparedGraph& model,
              nsky::util::ThreadPool& pool) {
  if (model.has_filter()) prepared.Filter(pool);
  for (uint32_t bits : model.CandidateBloomWidths()) {
    prepared.CandidateBlooms(bits, pool);
  }
  for (uint32_t bits : model.FullBloomWidths()) prepared.FullBlooms(bits, pool);
  if (model.has_two_hop()) prepared.TwoHop(pool);
  if (model.PeekDegreeOrder() != nullptr) prepared.DegreeOrder();
  if (model.PeekCores() != nullptr) prepared.Cores();
}

// The artifact build behind a cold filter-refine query, and the write
// path below the engine: VersionedGraph staging + commit, then
// PreparedGraph::RepairForUpdates, on a PreparedGraph holding the same
// artifacts as the workload's engine after its first query.
void PreparedLayers(Run& run) {
  const Spans::Open section = run.Section("section.prepared");
  const int64_t sec = static_cast<int64_t>(section.index);
  nsky::util::ThreadPool pool(1);
  std::unique_ptr<nsky::core::Engine> model = run.FreshEngine();
  {
    nsky::core::QueryRequest query;
    query.include_dominators = false;
    run.Check(model->Execute(query).ok(), "model execute");
  }
  const std::vector<uint32_t> widths = model->prepared().CandidateBloomWidths();
  run.Check(!widths.empty(), "candidate blooms built");

  std::vector<double> build_ms;
  for (size_t i = 0; i < 7; ++i) {
    nsky::core::PreparedGraph fresh(&run.graph);
    build_ms.push_back(run.Time("prepared.build", sec, i, [&] {
      fresh.Filter(pool);
      for (uint32_t bits : widths) fresh.CandidateBlooms(bits, pool);
    }));
  }
  run.SetMedian("prepared.build_ms", build_ms, "ms");

  std::vector<double> commit_ms;
  std::vector<double> repair_ms;
  double dirty = 0;
  size_t repaired = 0;
  uint64_t request = 0;
  for (const Session& session : run.sessions) {
    nsky::graph::VersionedGraph versioned(run.graph);
    nsky::core::PreparedGraph prepared(&versioned.Current());
    WarmLike(prepared, model->prepared(), pool);
    for (size_t i = 0; i < session.size(); ++i) {
      const Op& op = session[i];
      if (op.batch == nullptr) continue;
      ++request;
      std::shared_ptr<const Graph> old_graph = versioned.Snapshot();
      std::shared_ptr<const Graph> new_graph;
      std::vector<EdgeUpdate> net;
      const double commit = run.Time("versioned.commit", sec, request, [&] {
        for (const EdgeUpdate& e : *op.batch) versioned.Stage(e);
        net = versioned.StagedUpdates();
        new_graph = versioned.Commit();
      });
      run.Check(net.size() == op.batch->size(), "net batch size");
      nsky::core::PreparedGraph::RepairOutcome outcome;
      const double repair = run.Time("prepared.repair", sec, request, [&] {
        outcome = prepared.RepairForUpdates(*old_graph, *new_graph, net);
        prepared.Rebind(new_graph.get());
      });
      commit_ms.push_back(commit);
      repair_ms.push_back(repair);
      dirty += static_cast<double>(outcome.dirty_vertices);
      repaired += outcome.repaired ? 1 : 0;
      // A read after a fallback rebuilds what the filter-refine query
      // needs; mirror that, untimed.
      if (!outcome.repaired && i + 1 < session.size() &&
          session[i + 1].batch == nullptr) {
        prepared.Filter(pool);
        for (uint32_t bits : widths) prepared.CandidateBlooms(bits, pool);
      }
    }
  }
  const double n = static_cast<double>(std::max<size_t>(commit_ms.size(), 1));
  run.SetMedian("versioned.commit_ms", commit_ms, "ms");
  run.SetMedian("prepared.repair_ms", repair_ms, "ms");
  run.Set("prepared.dirty_vertices", dirty / n, "count", commit_ms.size());
  run.Set("prepared.repaired_ratio", static_cast<double>(repaired) / n,
          "ratio", commit_ms.size());
  run.spans.End(section);
}

// The read and write paths through the service and the transport, timed
// on one serving engine so that the layers' medians subtract cleanly. Per
// session, an in-process server::Server on a fresh SkylineService, and:
//  * each timed read: a loopback round trip (one client), then Handle on
//    the same service, then Engine::Execute and the renderer on its engine
//    -- the four nested layers, one after the other;
//  * writes alternate between a round trip and a direct Handle (a write
//    cannot be repeated), so both see the same engine and batch mix;
//  * read_full, whose two clients share the engine mutex, also takes round
//    trips with two concurrent clients; their extra median over one client
//    is the time a read waits for the mutex.
// Returns a rendered read response.
std::string RequestLayers(Run& run) {
  const Spans::Open section = run.Section("section.requests");
  const int64_t sec = static_cast<int64_t>(section.index);
  const nsky::server::HttpRequest get = ParseRequest(ReadRequestBytes());
  nsky::core::QueryRequest query;
  query.options.threads = 1;
  query.include_dominators = false;
  nsky::core::SkylineDocOptions doc;
  doc.algorithm = "filter-refine";
  doc.engine = true;
  std::vector<double> trip_ms, handle_ms, exec_ms, render_ms;
  std::vector<double> trip_write_ms, handle_write_ms, two_ms;
  std::string body;
  uint64_t request = 0;
  for (size_t s = 0; s < run.sessions.size(); ++s) {
    nsky::server::ServiceOptions service_options;
    service_options.max_inflight = 2;  // as the server runs
    nsky::server::SkylineService service(run.FreshEngine(), service_options);
    nsky::server::ServerOptions server_options;
    server_options.session_threads = 2;
    nsky::server::Server server(&service, server_options);
    if (auto st = server.Listen(); !st.ok()) Die("listen: " + st.ToString());
    std::thread serving([&] { server.Serve(); });
    nsky::core::Engine& engine = service.engine();
    {
      nsky::server::HttpClient first(server.port());
      auto r = first.Get(kReadTarget);  // the server's first query
      run.Check(r.ok() && r.value().status == 200, "first round trip");
    }
    // Each connection holds a session worker while open, so the two
    // clients run while no other connection is.
    if (s == 0 && run.workload == "read_full") {
      std::atomic<uint64_t> bad{0};
      std::vector<double> times[2];
      auto caller = [&](int c) {
        nsky::server::HttpClient own(server.port());
        for (size_t i = 0; i < run.reps; ++i) {
          nsky::util::Result<nsky::server::ClientResponse> r =
              nsky::util::Status::Unavailable("not sent");
          times[c].push_back(run.Time("server.round_trip_2clients", sec,
                                      2 * i + static_cast<uint64_t>(c),
                                      [&] { r = own.Get(kReadTarget); }));
          if (!r.ok() || r.value().status != 200) bad.fetch_add(1);
        }
      };
      std::thread other(caller, 1);
      caller(0);
      other.join();
      run.Check(bad.load() == 0, "two-client round trips");
      two_ms = times[0];
      two_ms.insert(two_ms.end(), times[1].begin(), times[1].end());
    }
    {
      nsky::server::HttpClient client(server.port());
      size_t writes = 0;
      for (const Op& op : run.sessions[s]) {
        ++request;
        if (op.batch == nullptr) {
          nsky::util::Result<nsky::server::ClientResponse> r =
              nsky::util::Status::Unavailable("not sent");
          const double trip = run.Time(
              op.timed ? "server.round_trip" : "server.read_back", sec,
              request, [&] { r = client.Get(kReadTarget); });
          run.Check(r.ok() && r.value().status == 200, "round trip");
          if (!op.timed) continue;
          trip_ms.push_back(trip);
          nsky::server::HttpResponse response;
          handle_ms.push_back(run.Time("service.handle", sec, request, [&] {
            response = service.Handle(get);
          }));
          run.Check(response.status == 200, "handle");
          nsky::core::QueryResponse result;
          exec_ms.push_back(run.Time("engine.execute", sec, request, [&] {
            engine.Execute(query, &result);
          }));
          run.Check(result.ok(), "execute");
          render_ms.push_back(run.Time("render", sec, request, [&] {
            body = nsky::core::SkylineDocToJson(engine.graph(), result.result,
                                                doc, &engine) +
                   "\n";
          }));
          continue;
        }
        const std::string bytes = PostRequestBytes(*op.batch);
        const std::string applied =
            "\"applied\":" + std::to_string(op.batch->size());
        if (writes++ % 2 == 0) {
          nsky::util::Result<nsky::server::ClientResponse> r =
              nsky::util::Status::Unavailable("not sent");
          trip_write_ms.push_back(run.Time("server.round_trip_write", sec,
                                           request,
                                           [&] { r = client.Raw(bytes); }));
          run.Check(r.ok() && r.value().status == 200 &&
                        r.value().body.find(applied) != std::string::npos,
                    "round trip write");
        } else {
          const nsky::server::HttpRequest post = ParseRequest(bytes);
          nsky::server::HttpResponse response;
          handle_write_ms.push_back(run.Time("service.handle_write", sec,
                                             request, [&] {
                                               response = service.Handle(post);
                                             }));
          run.Check(response.status == 200 &&
                        response.body.find(applied) != std::string::npos,
                    "handle write");
        }
      }
    }
    server.Shutdown();
    serving.join();
  }
  run.SetMedian("server.round_trip_ms", trip_ms, "ms");
  run.SetMedian("service.handle_ms", handle_ms, "ms");
  run.SetMedian("service.handle_write_ms", handle_write_ms, "ms");
  run.SetMedian("engine.execute_ms", exec_ms, "ms");
  run.SetMedian("render.ms", render_ms, "ms");
  run.Set("render.bytes", static_cast<double>(body.size()), "bytes", 1);
  run.Set("server.self_ms", Median(trip_ms) - Median(handle_ms), "ms",
          trip_ms.size());
  run.Set("server.write_self_ms",
          Median(trip_write_ms) - Median(handle_write_ms), "ms",
          trip_write_ms.size());
  run.Set("service.self_ms",
          Median(handle_ms) - Median(exec_ms) - Median(render_ms), "ms",
          handle_ms.size());
  // One-client workloads never wait for the engine mutex.
  run.Set("service.wait_ms",
          two_ms.empty() ? 0.0 : Median(two_ms) - Median(trip_ms), "ms",
          two_ms.size());
  run.spans.End(section);
  return body;
}

// persist::Load and persist::Inspect of the run's snapshot file, and its
// per-section sizes.
void PersistLayers(Run& run) {
  const Spans::Open section = run.Section("section.persist");
  const int64_t sec = static_cast<int64_t>(section.index);
  std::vector<double> load_ms;
  std::vector<double> inspect_ms;
  for (size_t i = 0; i < 5; ++i) {
    bool ok = false;
    load_ms.push_back(run.Time("persist.load", sec, i, [&] {
      ok = nsky::persist::Load(run.snapshot_path).ok();
    }));
    run.Check(ok, "persist load");
  }
  std::optional<nsky::util::Result<nsky::persist::Manifest>> manifest;
  for (size_t i = 0; i < 5; ++i) {
    inspect_ms.push_back(run.Time("persist.inspect", sec, i, [&] {
      manifest = nsky::persist::Inspect(run.snapshot_path);
    }));
    run.Check(manifest->ok(), "persist inspect");
  }
  run.SetMedian("persist.load_ms", load_ms, "ms");
  run.SetMedian("persist.inspect_ms", inspect_ms, "ms");
  // Every section name the format defines, 0 when absent from the file.
  std::map<std::string, double> mb = {
      {"meta", 0},         {"graph", 0}, {"filter", 0},
      {"two_hop", 0},      {"degree_order", 0}, {"cores", 0},
      {"candidate_bloom", 0}, {"full_bloom", 0}};
  double file_mb = 0;
  if (manifest->ok()) {
    for (const nsky::persist::SectionInfo& s : manifest->value().sections) {
      mb[s.name] += static_cast<double>(s.bytes) / 1e6;
    }
    file_mb = static_cast<double>(manifest->value().file_bytes) / 1e6;
  }
  run.Set("persist.snapshot_mb", file_mb, "MB", 1);
  for (const auto& [name, value] : mb) {
    run.Set("persist.section_mb." + name, value, "MB", 1);
  }
  run.spans.End(section);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  std::map<std::string, size_t> counts;
  for (const char* key : {"workload", "edges", "snapshot", "scripts", "reps",
                          "rounds", "sessions", "spans"}) {
    if (!flags.count(std::string("--") + key)) {
      Die(std::string("missing --") + key);
    }
  }
  for (const char* key : {"reps", "rounds", "sessions"}) {
    counts[key] = std::stoul(flags[std::string("--") + key]);
  }
  Run run;
  run.workload = flags["--workload"];
  if (run.workload != "read_full" && run.workload != "mutate_full" &&
      run.workload != "restore_full") {
    Die("unknown workload " + run.workload);
  }
  auto graph = nsky::graph::LoadEdgeList(flags["--edges"]);
  if (!graph.ok()) Die("edges: " + graph.status().ToString());
  run.graph = std::move(graph).value();
  run.snapshot_path = flags["--snapshot"];
  run.reps = counts["reps"];
  run.scripts = ReadScripts(flags["--scripts"]);
  try {
    run.sessions = BuildSessions(run, counts["reps"], counts["rounds"],
                                 counts["sessions"]);
  } catch (const std::out_of_range&) {
    Die("the update scripts are shorter than the counts ask");
  }
  if (run.sessions.empty()) Die("no sessions to replay");

  const Spans::Open root = run.spans.Begin("sb_layers", -1, 0);
  run.root = static_cast<int64_t>(root.index);
  EngineLayers(run);
  PreparedLayers(run);
  MessageLayers(run, RequestLayers(run));
  PersistLayers(run);
  run.spans.End(root);
  run.spans.Write(flags["--spans"]);

  std::string out = "{\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : run.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", m.value);
    out += std::string(first ? "" : ",") + "\"" + name +
           "\":{\"value\":" + value + ",\"unit\":\"" + m.unit +
           "\",\"samples\":" + std::to_string(m.samples) + "}";
    first = false;
  }
  out += "},\"checks\":" + std::to_string(run.checks) +
         ",\"check_failures\":" + std::to_string(run.check_failures) +
         ",\"failures\":[";
  for (size_t i = 0; i < run.failures.size(); ++i) {
    out += std::string(i ? "," : "") + "\"" + JsonEscape(run.failures[i]) +
           "\"";
  }
  std::cout << out << "]}\n";
  return 0;
}
