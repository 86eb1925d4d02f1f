#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Tune: return "tune";
    case Layer::Serve: return "serve";
    case Layer::Decoder: return "decoder";
    case Layer::Lm: return "lm";
    case Layer::Client: return "client";
  }
  return "?";
}

const char* op_name(Op op) {
  switch (op) {
    case Op::Propose: return "propose";
    case Op::Observe: return "observe";
    case Op::Outstanding: return "outstanding";
    case Op::Blocked: return "blocked";
    case Op::Start: return "start";
    case Op::StartChunked: return "start_chunked";
    case Op::PrefillChunk: return "prefill_chunk";
    case Op::Step: return "step";
    case Op::Release: return "release";
    case Op::PreparePrefix: return "prepare_prefix";
    case Op::AbandonPrefix: return "abandon_prefix";
    case Op::ShedCache: return "shed_cache";
    case Op::Prefill: return "prefill";
    case Op::PrefillFrom: return "prefill_from";
    case Op::DecodeBatch: return "decode_batch";
  }
  return "?";
}

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t thread_slot() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void Recorder::add(const Span& span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Recorder::snapshot() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

bool Recorder::write_jsonl(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"layer\":\"%s\",\"op\":\"%s\",\"thread\":%u,"
                 "\"t0_ns\":%lld,\"t1_ns\":%lld,\"n\":%u,\"done\":%s}\n",
                 layer_name(s.layer), op_name(s.op), s.thread,
                 static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                 s.n, s.done ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Recorder& recorder, Layer layer, Op op,
                       std::uint32_t n, bool gated)
    : recorder_(gated && !recorder.enabled() ? nullptr : &recorder) {
  if (recorder_ == nullptr) return;
  span_.layer = layer;
  span_.op = op;
  span_.n = n;
  span_.thread = thread_slot();
  span_.t0 = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.t1 = now_ns();
  recorder_->add(span_);
}

std::vector<Interval> union_of(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.t0 < b.t0; });
  std::vector<Interval> out;
  for (const Interval& i : intervals) {
    if (i.t1 <= i.t0) continue;
    if (!out.empty() && i.t0 <= out.back().t1) {
      out.back().t1 = std::max(out.back().t1, i.t1);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<Interval> intersect(const std::vector<Interval>& a,
                                const std::vector<Interval>& b) {
  const std::vector<Interval> ua = union_of(a);
  const std::vector<Interval> ub = union_of(b);
  std::vector<Interval> out;
  std::size_t i = 0, j = 0;
  while (i < ua.size() && j < ub.size()) {
    const Nanos lo = std::max(ua[i].t0, ub[j].t0);
    const Nanos hi = std::min(ua[i].t1, ub[j].t1);
    if (lo < hi) out.push_back({lo, hi});
    if (ua[i].t1 < ub[j].t1) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

Nanos total_length(const std::vector<Interval>& disjoint) {
  Nanos total = 0;
  for (const Interval& i : disjoint) total += i.t1 - i.t0;
  return total;
}

Attribution attribute(const std::vector<Span>& spans,
                      const std::vector<Interval>& wall) {
  // Sweep line over span and wall boundaries.  kind: 0..3 = owning layer,
  // 4 = wall; delta +1 opens, -1 closes.
  struct Edge {
    Nanos t;
    int kind;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(2 * spans.size() + 2 * wall.size());
  for (const Span& s : spans) {
    if (s.layer == Layer::Client || s.t1 <= s.t0) continue;
    const int kind = static_cast<int>(s.layer);
    edges.push_back({s.t0, kind, +1});
    edges.push_back({s.t1, kind, -1});
  }
  for (const Interval& w : union_of(wall)) {
    edges.push_back({w.t0, 4, +1});
    edges.push_back({w.t1, 4, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });

  Attribution out;
  std::array<int, kOwningLayers + 1> open{};
  Nanos unattributed = 0;
  Nanos wall_total = 0;
  std::array<Nanos, kOwningLayers> self{};
  for (std::size_t e = 0; e < edges.size(); ++e) {
    open[static_cast<std::size_t>(edges[e].kind)] += edges[e].delta;
    if (e + 1 == edges.size()) break;
    const Nanos span = edges[e + 1].t - edges[e].t;
    if (span <= 0 || open[4] <= 0) continue;
    wall_total += span;
    int owner = -1;
    for (int layer = static_cast<int>(kOwningLayers) - 1; layer >= 0;
         --layer) {
      if (open[static_cast<std::size_t>(layer)] > 0) {
        owner = layer;
        break;
      }
    }
    if (owner < 0) {
      unattributed += span;
    } else {
      self[static_cast<std::size_t>(owner)] += span;
    }
  }
  for (std::size_t l = 0; l < kOwningLayers; ++l) {
    out.self_s[l] = static_cast<double>(self[l]) * 1e-9;
  }
  out.wall_s = static_cast<double>(wall_total) * 1e-9;
  out.unattributed_s = static_cast<double>(unattributed) * 1e-9;
  return out;
}

}  // namespace perfbench
