// serve-int8-mixed: an in-process serve::Server (the cati-serve daemon core)
// running the quantized engine with its result cache and decode cache on,
// driven over a unix socket by a closed loop of min(4, nproc) clients, each
// waiting for its reply before sending the next request (cati-serve callers
// block on the answer).
//
// Each client's request stream is drawn from the seed and its own history,
// so the sequence never depends on timing:
//   ~50 % exact repeats of one of its earlier requests  (result-cache hits)
//   ~25 % one of its 16 latest images with a new confMin (result miss,
//                                                          decode-cache hit)
//   ~25 % an image nobody sent before                    (full miss)
// Images are small (8 functions) and uniform in size, so the request
// latency distribution comes from the serving layer, not the image mix. The
// decode working set (4 clients x 16 images) fits the daemon's default
// decode cache, so memory does not grow with the number of requests served.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "bench.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace perfbench {

using namespace cati;

namespace {

constexpr int kFuncsPerImage = 8;
constexpr uint32_t kMaxConf = 19;  // confMin = 0.05 * k, k <= 19
constexpr uint32_t kRecent = 16;   // new-confMin requests reuse these images

struct Key {
  uint32_t client = 0;
  uint32_t image = 0;  ///< index into the client's image pool
  uint32_t conf = 0;   ///< confMin = 0.05 * conf
  auto operator<=>(const Key&) const = default;
  float confMin() const { return 0.05F * static_cast<float>(conf); }
};

/// One client's seeded request stream.
class Stream {
 public:
  Stream(uint64_t seed, uint32_t client, size_t poolSize)
      : rng_(seed), client_(client), confUsed_(poolSize, 0) {}

  /// The next request, or nullopt once the pool of new images is used up.
  std::optional<Key> next() {
    const uint64_t u = rng_() % 4;
    if (!history_.empty() && u < 2) {
      return history_[rng_() % history_.size()];
    }
    if (nextNew_ > 0 && u == 2) {
      const uint32_t recent = std::min(nextNew_, kRecent);
      const auto img = nextNew_ - 1 - static_cast<uint32_t>(rng_() % recent);
      if (confUsed_[img] < kMaxConf) {
        return record({client_, img, ++confUsed_[img]});
      }
    }
    if (nextNew_ == confUsed_.size()) return std::nullopt;
    return record({client_, nextNew_++, 0});
  }

 private:
  Key record(Key k) {
    history_.push_back(k);
    return k;
  }

  std::mt19937_64 rng_;
  uint32_t client_;
  uint32_t nextNew_ = 0;
  std::vector<uint32_t> confUsed_;
  std::vector<Key> history_;
};

struct Op {
  Key key;
  double ms = 0;
  double doneMs = 0;  ///< completion time since the loop started
  serve::Frame reply;
};

struct Setup {
  std::unique_ptr<Engine> fp32;
  std::unique_ptr<Engine> int8;
  std::filesystem::path cqnt;
  std::vector<std::vector<TestImage>> pools;  ///< per client
  double trainMs = 0;
  double loadMs = 0;
  std::unique_ptr<serve::Server> server;  ///< last: stops before the engines
};

size_t poolSize(const Options& opt) {
  // About three times what one client uses at today's speed; a client
  // whose pool runs out stops early.
  return opt.smoke ? 4 : static_cast<size_t>(48 * opt.seconds);
}

Setup setUp(const Options& opt, par::ThreadPool& pool, Tracer& tracer) {
  Setup s;
  Clock::time_point t0 = Clock::now();
  {
    const Tracer::Span span(tracer, "setup.train", 0);
    s.fp32 = std::make_unique<Engine>(trainModel(opt.seed, pool));
  }
  s.trainMs = msSince(t0);
  s.cqnt = std::filesystem::path(opt.workDir) / "serve-model.cqnt";
  s.fp32->quantize().saveFile(s.cqnt);
  t0 = Clock::now();
  s.int8 = std::make_unique<Engine>(
      Engine::loadFile(s.cqnt, Engine::LoadMode::kMap));
  s.loadMs = msSince(t0);

  const auto clients = static_cast<size_t>(opt.jobs);
  const size_t per = poolSize(opt);
  std::vector<TestImage> all =
      par::parallelMap<TestImage>(pool, clients * per, 4, [&](size_t i) {
        const uint64_t seed = deriveSeed(opt.seed, 0x1000 + i);
        return makeImage(synth::defaultProfile("svc" + std::to_string(i),
                                               seed, kFuncsPerImage),
                         seed % 2 ? synth::Dialect::Clang : synth::Dialect::Gcc,
                         static_cast<int>((seed >> 8) % 4), seed >> 16);
      });
  s.pools.resize(clients);
  for (size_t i = 0; i < all.size(); ++i) {
    s.pools[i / per].push_back(std::move(all[i]));
  }

  serve::ServerConfig cfg;
  cfg.listen = sock::Address::parse(
      "unix:" + (std::filesystem::path(opt.workDir) / "serve.sock").string());
  cfg.jobs = opt.jobs;
  cfg.batch = opt.batch;
  cfg.cacheBytes = 256ULL << 20;
  s.server = std::make_unique<serve::Server>(*s.int8, cfg);
  s.server->start();
  // Warm-up: a ping and one analysis of an image no stream uses.
  serve::Client warmClient(s.server->bound());
  const TestImage warm =
      makeImage(synth::defaultProfile("warmup", deriveSeed(opt.seed, 0x301), 4),
                synth::Dialect::Gcc, 2, deriveSeed(opt.seed, 0x302));
  if (!warmClient.ping() ||
      warmClient.analyze({0.0F, warm.bytes}).type != serve::MsgType::kReport) {
    throw std::runtime_error("serve warm-up failed");
  }
  return s;
}

/// The reply an offline cati-infer run gives for `key`, in wire form.
serve::ReportReply offlineReply(Engine& engine, const TestImage& ti,
                                float confMin, int batch) {
  DiagList validation;
  std::istringstream is(ti.bytes);
  const std::optional<loader::Image> img = loader::tryRead(is, validation);
  if (!img) return {};
  serve::AnalyzeOptions o;
  o.confMin = confMin;
  const serve::AnalyzeResult res =
      serve::analyzeImage(engine, *img, nullptr, batch, o);
  std::ostringstream ds;
  print(validation, ds);
  print(res.diags, ds);
  return {res.report, ds.str()};
}

}  // namespace

void runServe(const Options& opt, Results& r) {
  par::ThreadPool pool(opt.jobs);
  Tracer tracer(opt.trace);
  obs::setEnabled(opt.trace);

  std::vector<double> setupMs;
  Setup s;
  ObsWindow setupObs;
  for (int i = 0; i < opt.setups(); ++i) {
    s.server.reset();
    const Clock::time_point t0 = Clock::now();
    s = setUp(opt, pool, tracer);
    setupMs.push_back(msSince(t0));
  }
  setupObs.close();
  const auto clients = static_cast<uint32_t>(opt.jobs);
  const sock::Address addr = s.server->bound();

  // Timed region: the closed loop.
  std::vector<std::vector<Op>> ops(clients);
  std::vector<size_t> ioErrors(clients, 0);
  ObsWindow loopObs;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        serve::Client client(addr);
        Stream stream(deriveSeed(opt.seed, 0x2000 + c), c, s.pools[c].size());
        while (Clock::now() < deadline) {
          const auto next = stream.next();
          if (!next) break;
          const Key key = *next;
          const std::string payload = serve::encodeAnalyzeRequest(
              {key.confMin(), s.pools[c][key.image].bytes});
          Op op;
          op.key = key;
          const Clock::time_point t0 = Clock::now();
          {
            const Tracer::Span span(tracer, "serve.request",
                                    (uint64_t{c} << 32) | ops[c].size());
            op.reply = client.call(serve::MsgType::kAnalyze, payload);
          }
          op.ms = msSince(t0);
          op.doneMs = msSince(start);
          ops[c].push_back(std::move(op));
        }
      } catch (const std::exception& e) {
        ++ioErrors[c];
        std::fprintf(stderr, "perfbench: client %u: %s\n", c, e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wallMs = msSince(start);
  loopObs.close();

  // The accuracy set: each client's first images at confMin 0, requested
  // now if the timed loop did not reach them.
  std::map<Key, serve::Frame> first;
  for (const auto& v : ops) {
    for (const Op& op : v) first.try_emplace(op.key, op.reply);
  }
  const size_t accPer = opt.smoke ? 1 : 8;
  std::vector<Key> accKeys;
  std::vector<const TestImage*> accImages;
  {
    serve::Client client(addr);
    for (uint32_t c = 0; c < clients; ++c) {
      for (uint32_t i = 0; i < std::min(accPer, s.pools[c].size()); ++i) {
        const Key k{c, i, 0};
        if (!first.contains(k)) {
          first.emplace(k, client.call(serve::MsgType::kAnalyze,
                                       serve::encodeAnalyzeRequest(
                                           {0.0F, s.pools[c][i].bytes})));
        }
        accKeys.push_back(k);
        accImages.push_back(&s.pools[c][i]);
      }
    }
  }

  // Checks: every distinct request against an offline analyzeImage of the
  // same image and confMin, on engines loaded from the same model file.
  std::vector<std::pair<Key, const serve::Frame*>> distinct;
  for (const auto& [k, f] : first) distinct.emplace_back(k, &f);
  std::vector<char> good(distinct.size(), 0);
  std::vector<Score> scores(distinct.size());
  {
    std::vector<std::thread> checkers;
    for (int t = 0; t < opt.jobs; ++t) {
      checkers.emplace_back([&, t] {
        try {
          Engine engine = Engine::loadFile(s.cqnt, Engine::LoadMode::kMap);
          for (size_t i = static_cast<size_t>(t); i < distinct.size();
               i += static_cast<size_t>(opt.jobs)) {
            const auto& [k, frame] = distinct[i];
            if (frame->type != serve::MsgType::kReport) continue;
            const TestImage& ti = s.pools[k.client][k.image];
            const serve::ReportReply got =
                serve::decodeReportReply(frame->payload);
            const serve::ReportReply want =
                offlineReply(engine, ti, k.confMin(), opt.batch);
            const auto rows = parseReport(got.report);
            good[i] = got.report == want.report &&
                      got.diagsText == want.diagsText && rows.has_value();
            if (rows) scores[i] = score(*rows, ti.truth);
          }
        } catch (const std::exception& e) {
          // Unchecked requests stay marked bad.
          std::fprintf(stderr, "perfbench: checker %d: %s\n", t, e.what());
        }
      });
    }
    for (std::thread& t : checkers) t.join();
  }
  std::map<Key, size_t> slot;
  for (size_t i = 0; i < distinct.size(); ++i) slot[distinct[i].first] = i;

  size_t total = 0;
  std::vector<double> lat;
  std::vector<std::pair<double, size_t>> done;  ///< (doneMs, VUCs)
  for (uint32_t c = 0; c < clients; ++c) {
    r.check(ioErrors[c] == 0, "client " + std::to_string(c) + " lost its "
                                  "connection");
    for (const Op& op : ops[c]) {
      const size_t i = slot.at(op.key);
      const bool ok = good[i] && op.reply.type == serve::MsgType::kReport &&
                      op.reply.payload == distinct[i].second->payload;
      r.check(ok, "request client " + std::to_string(c) + " image " +
                      std::to_string(op.key.image) + " confMin " +
                      std::to_string(op.key.confMin()) +
                      " differs from offline cati-infer");
      ++total;
      lat.push_back(op.ms);
      done.emplace_back(op.doneMs, scores[i].vucs);
    }
  }
  Score acc;
  for (const Key& k : accKeys) acc.add(scores[slot.at(k)]);
  addAccuracy(r, acc);

  // Rates and the tail are medians over one slice of completions per
  // second of the run, so a stall of the machine in one slice does not
  // decide the run.
  std::vector<size_t> order(done.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return done[a].first < done[b].first; });
  const size_t k = std::max<size_t>(1, static_cast<size_t>(opt.seconds));
  std::vector<double> rates;
  std::vector<double> vucRates;
  std::vector<double> tails;
  double prevMs = 0;
  for (size_t j = 0; j < k && !order.empty(); ++j) {
    const size_t b = j * order.size() / k;
    const size_t e = (j + 1) * order.size() / k;
    if (b == e) continue;
    size_t vucs = 0;
    std::vector<double> roundTrips;
    for (size_t i = b; i < e; ++i) {
      vucs += done[order[i]].second;
      roundTrips.push_back(lat[order[i]]);
    }
    const double sliceS = (done[order[e - 1]].first - prevMs) / 1000.0;
    prevMs = done[order[e - 1]].first;
    rates.push_back(static_cast<double>(e - b) / sliceS);
    vucRates.push_back(static_cast<double>(vucs) / sliceS);
    std::sort(roundTrips.begin(), roundTrips.end());
    if (roundTrips.size() >= 11) {
      tails.push_back(roundTrips[roundTrips.size() - 11]);
    }
  }
  const std::string per = "median over " + std::to_string(k) +
                          " slices of " + std::to_string(total / k) +
                          " consecutive completions";
  r.add("requests_per_s", median(rates), "1/s",
        per + "; " + std::to_string(total) + " requests in " +
            std::to_string(wallMs / 1000.0) + " s, " +
            std::to_string(clients) + " closed-loop clients");
  r.add("vucs_per_s", median(vucRates), "1/s",
        per + ", VUCs behind the rows of every reply");
  addLatency(r, lat, "request round trips");
  if (!tails.empty()) {
    r.add("latency_tail_ms", median(tails), "ms",
          per + ", each slice's highest percentile with ten round trips "
                "beyond it");
  }
  addSetupAndRss(r, setupMs);

  if (opt.trace) {
    addObsMetrics(loopObs, wallMs, r);
    addTrainMetrics(setupObs, {s.trainMs}, r);
    r.add("cati.model_load_ms", s.loadMs, "ms", "int8 CQNT mmap load");
    const std::vector<const TestImage*> sample(
        accImages.begin(),
        accImages.begin() +
            static_cast<long>(std::min<size_t>(8, accImages.size())));
    const LayerPass pass =
        traceLayers(*s.int8, sample, pool, opt.batch, tracer, 1u << 20, r);
    addLayerMetrics(tracer, pass, r);
    probeNn(*s.fp32, *s.int8, sample, opt.seed, r);
    tracer.write((std::filesystem::path(opt.workDir) /
                  "trace-serve-int8-mixed.jsonl").string());
  }
  s.server->stop();
  s.server.reset();
  std::filesystem::remove(s.cqnt);
}

}  // namespace perfbench
