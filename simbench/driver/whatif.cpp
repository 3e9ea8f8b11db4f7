#include "whatif.h"

#include <cstdio>
#include <exception>
#include <iterator>
#include <string>
#include <utility>

#include "campaign.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/tcp.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"

namespace simbench {

namespace {

constexpr std::uint64_t kHotSalt = 0x407;
constexpr std::uint64_t kParamSalt = 0x9a7a;

const char* const kPlacements[] = {"contiguous", "linear", "random"};
const double kPowerCaps[] = {16000.0, 20000.0};

// Malformed or out-of-range lines; each must get a typed bad_request.
const char* const kBadLines[] = {
    "not json at all",
    R"({"op":"simulate","jobs":-5})",
    R"({"op":"simulate","placement":"diagonal"})",
    R"({"op":"simulate","jobs":120,"bogus_knob":1})",
    R"({"op":"simulate","machine":"marenostrum4","jobs":100})",
    R"({"op":"simulate","jobs":100,"sampling_k":4})",
    R"({"op":"launch"})",
    R"({"op":"simulate","jobs":100,"dvfs_state":99})",
};

// Positions of one block of 20 requests: 14 hot, 4 distinct, 1 ping or
// stats, 1 malformed. Blocks keep every run's mix at the same proportions;
// the seed shuffles each block.
constexpr int kBlock = 20;
constexpr int kFirstDistinctSlot = 14;
constexpr int kDistinctPerBlock = 4;
constexpr int kDesignBlock = 12;
constexpr std::uint64_t kDesignSalt = 0xd15c;
const Kind kBlockKinds[kBlock] = {
    Kind::kHot, Kind::kHot, Kind::kHot, Kind::kHot, Kind::kHot,
    Kind::kHot, Kind::kHot, Kind::kHot, Kind::kHot, Kind::kHot,
    Kind::kHot, Kind::kHot, Kind::kHot, Kind::kHot, Kind::kDistinct,
    Kind::kDistinct, Kind::kDistinct, Kind::kDistinct, Kind::kPing,
    Kind::kBad};

std::string simulate_line(int jobs, const char* queue, const char* placement,
                          int dvfs, double cap, std::uint64_t sim_seed) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                R"({"op":"simulate","machine":"cte-arm","jobs":%d,)"
                R"("mean_interarrival_s":16,"burst_fraction":0.3,)"
                R"("queue":"%s","placement":"%s","dvfs_state":%d,)"
                R"("power_cap_w":%.0f,"seed":%llu})",
                jobs, queue, placement, dvfs, cap,
                static_cast<unsigned long long>(sim_seed));
  return buf;
}

// Simulate request number j of a balanced design: placement, power cap,
// DVFS state and queue cycle so that every 12 consecutive requests hold
// the same mix of cheap and costly studies, and job counts stride through
// 100-200.
MixItem simulate_item(std::uint64_t j, std::uint64_t sim_seed) {
  MixItem item;
  item.kind = Kind::kDistinct;
  item.jobs = 100 + static_cast<int>((j * 37) % 101);
  const double cap = (j / 3) % 2 == 0 ? 0.0 : kPowerCaps[(j / 6) % 2];
  item.line = simulate_line(item.jobs, j % 5 == 4 ? "fcfs" : "easy",
                            kPlacements[j % 3],
                            static_cast<int>((j + j / 12) % 4), cap, sim_seed);
  return item;
}

const json::Value* member(const json::Value& v, const char* key) {
  return v.is_object() ? v.find(key) : nullptr;
}

std::string string_member(const json::Value& v, const char* key) {
  const json::Value* m = member(v, key);
  return m && m->type == json::Value::Type::kString ? m->string : "";
}

}  // namespace

WhatifMix::WhatifMix(std::uint64_t seed)
    : seed_(seed), offset_(mix_seed(seed, kParamSalt)) {
  const std::uint64_t hot = mix_seed(seed, kHotSalt);
  for (int i = 0; i < kHotSet; ++i) {
    const std::uint64_t j = hot % 1000 + static_cast<std::uint64_t>(i);
    MixItem item = simulate_item(j, 1 + ((hot >> 32) & 0xfffff) + j);
    item.kind = Kind::kHot;
    item.hot = i;
    hot_.push_back(item);
  }
}

std::vector<int> WhatifMix::shuffled(std::uint64_t salt, std::uint64_t block,
                                     int n) const {
  Rng rng(mix_seed(seed_ ^ salt, block));
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  return order;
}

MixItem WhatifMix::at(std::uint64_t k) const {
  const std::uint64_t block = k / kBlock;
  const int slot = shuffled(kParamSalt, block, kBlock)[k % kBlock];
  switch (kBlockKinds[slot]) {
    case Kind::kHot:
      return hot_[static_cast<std::size_t>(
          mix_seed(seed_, k) % static_cast<std::uint64_t>(kHotSet))];
    case Kind::kDistinct: {
      // The distinct requests are one fixed design for every seed, so
      // that all runs offer the same cold work; the seed orders them
      // within blocks of 12. Their simulated seeds carry the design index,
      // so no two share a cache key.
      const std::uint64_t n = block * kDistinctPerBlock +
                              static_cast<std::uint64_t>(slot - kFirstDistinctSlot);
      const std::uint64_t j =
          n - n % kDesignBlock +
          static_cast<std::uint64_t>(shuffled(kDesignSalt, n / kDesignBlock,
                                              kDesignBlock)[n % kDesignBlock]);
      return simulate_item(j, (1ull << 40) + j);
    }
    case Kind::kBad:
      return MixItem{Kind::kBad, -1, 0,
                     kBadLines[(block + offset_) % std::size(kBadLines)]};
    default:
      // Ping and stats take turns, one per block.
      return block % 2 == 0 ? MixItem{Kind::kPing, -1, 0, R"({"op":"ping"})"}
                            : MixItem{Kind::kStats, -1, 0, R"({"op":"stats"})"};
  }
}

std::vector<MixItem> WhatifMix::golden() {
  auto simulate = [](int jobs, const char* placement, const char* queue,
                     int dvfs, double cap, int seed) {
    return MixItem{Kind::kDistinct, -1, jobs,
                   simulate_line(jobs, queue, placement, dvfs, cap, seed)};
  };
  return {simulate(100, "linear", "easy", 0, 0.0, 11),
          simulate(120, "random", "fcfs", 2, 0.0, 12),
          simulate(100, "contiguous", "easy", 0, 16000.0, 13),
          MixItem{Kind::kPing, -1, 0, R"({"op":"ping"})"},
          MixItem{Kind::kBad, -1, 0, kBadLines[1]},
          MixItem{Kind::kBad, -1, 0, kBadLines[4]}};
}

bool ReplyChecker::check(const MixItem& item, bool delivered,
                         const std::string& reply) {
  ++checked_;
  bool ok = delivered;
  json::Value v;
  if (ok) {
    try {
      v = json::parse(reply);
    } catch (const std::exception&) {
      ok = false;
    }
  }
  const std::string status = string_member(v, "status");
  const std::string code = string_member(v, "code");
  if (ok) {
    switch (item.kind) {
      case Kind::kHot:
      case Kind::kDistinct: {
        const json::Value* metrics = member(v, "metrics");
        const json::Value* jobs = metrics ? member(*metrics, "jobs") : nullptr;
        ok = status == "ok" && string_member(v, "op") == "simulate" && jobs &&
             jobs->number == item.jobs;
        replies_[hash64(item.line)] = hash64(reply);
        if (item.kind == Kind::kHot) {
          const auto [it, first] = hot_first_.emplace(item.hot, reply);
          ok = ok && (first || it->second == reply);
        }
        break;
      }
      case Kind::kPing:
        ok = reply == server::ping_reply();
        break;
      case Kind::kStats:
        ok = status == "ok" && string_member(v, "op") == "stats";
        break;
      case Kind::kBad:
        ok = string_member(v, "op") == "error" && code == "bad_request";
        break;
    }
  }
  if (!ok) ++failures_;
  return ok;
}

Endpoint::~Endpoint() {
  clients.clear();
  if (tcp) tcp->stop();
  if (service) service->shutdown();
}

std::unique_ptr<Endpoint> start_endpoint(int workers, int connections) {
  auto e = std::make_unique<Endpoint>();
  server::ServiceConfig config;
  config.workers = workers;
  e->service = std::make_unique<server::Service>(config);
  e->tcp = std::make_unique<server::TcpServer>(*e->service,
                                               server::TcpOptions{});
  e->tcp->start();
  for (int c = 0; c < connections; ++c) {
    e->clients.push_back(
        std::make_unique<server::Client>("127.0.0.1", e->tcp->port()));
  }
  return e;
}

SendFn tcp_sender(Endpoint& e, std::vector<SpanLog>* logs) {
  return [&e, logs](int conn, const std::string& line, std::string* reply) {
    SpanLog* log = logs ? &(*logs)[static_cast<std::size_t>(conn)] : nullptr;
    const int span = log ? log->open("loadgen.request", hash64(line), 1) : -1;
    bool ok = true;
    try {
      *reply = e.clients[static_cast<std::size_t>(conn)]->request(line);
    } catch (const std::exception&) {
      ok = false;
    }
    if (log) log->close(span);
    return ok;
  };
}

}  // namespace simbench
