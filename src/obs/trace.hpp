// memlp::obs — structured solver tracing.
//
// The paper's whole evaluation (§4, Figs. 5–7) is built from per-iteration
// and per-phase quantities: PDIP iteration counts, crossbar write/read
// tallies, latency/energy decomposition. This module is the substrate that
// makes those quantities observable on every solve instead of only inside
// the bench harnesses:
//
//   * TraceSink — an event stream. JSONL (one JSON object per line) and CSV
//     (long format: seq,ts,type,key,value) implementations plus a null sink.
//   * Event — a typed record: a `type` tag plus flat key/value fields.
//   * IterationRecord / SolveSummary — the typed records every solver emits.
//   * PhaseSpan — RAII scoped timer emitting a `phase` event with counter
//     snapshot deltas attached by the caller (e.g. `programming`,
//     `iterations`, `noc_exchange`).
//
// Cost discipline: a solver holds a `TraceSink*` that is nullptr when
// tracing is off, and every instrumentation site checks the pointer before
// building an Event — no allocation, no formatting, no virtual call on the
// untraced hot path. `default_trace_sink()` resolves the process-wide sink
// from MEMLP_TRACE once; options structs can override it programmatically.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/stopwatch.hpp"

namespace memlp::obs {

/// One flat field of a trace event.
struct Field {
  std::string key;
  std::variant<std::int64_t, double, bool, std::string> value;
};

/// A typed trace record: a `type` tag plus flat key/value fields.
class Event {
 public:
  explicit Event(std::string type) : type_(std::move(type)) {}

  Event& with(std::string key, double v) {
    fields_.push_back({std::move(key), v});
    return *this;
  }
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Event& with(std::string key, T v) {
    fields_.push_back({std::move(key), static_cast<std::int64_t>(v)});
    return *this;
  }
  Event& with(std::string key, bool v) {
    fields_.push_back({std::move(key), v});
    return *this;
  }
  Event& with(std::string key, std::string v) {
    fields_.push_back({std::move(key), std::move(v)});
    return *this;
  }
  Event& with(std::string key, const char* v) {
    return with(std::move(key), std::string(v));
  }

  [[nodiscard]] const std::string& type() const noexcept { return type_; }
  [[nodiscard]] const std::vector<Field>& fields() const noexcept {
    return fields_;
  }

  /// Looks up a field by key (nullptr when absent).
  [[nodiscard]] const Field* find(std::string_view key) const noexcept;

  /// Numeric value of a field (int64 widened to double); `fallback` when the
  /// field is absent or non-numeric.
  [[nodiscard]] double number(std::string_view key,
                              double fallback = 0.0) const noexcept;

  /// The event as a one-line JSON object: {"type":...,<fields>}.
  [[nodiscard]] std::string to_json() const;

 private:
  std::string type_;
  std::vector<Field> fields_;
};

/// Destination of a trace stream. Implementations must be safe to call from
/// multiple threads.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const Event& event) = 0;
  virtual void flush() {}
};

/// Swallows every event (for call sites that want a non-null sink).
class NullTraceSink final : public TraceSink {
 public:
  void emit(const Event&) override {}
};

/// One JSON object per line; every record gains `seq` (emission index) and
/// `ts` (seconds since the sink was opened).
class JsonlTraceSink final : public TraceSink {
 public:
  /// "-" or "stderr" stream to stderr; any other string is a file path.
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;

  /// False when the file could not be opened (emits become no-ops).
  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }

  void emit(const Event& event) override;
  void flush() override;

 private:
  std::FILE* file_ = nullptr;
  bool owned_ = false;
  std::mutex mutex_;  // memlint:allow(R1): sink-internal serialization lock
  Stopwatch clock_;
  std::uint64_t seq_ = 0;
};

/// Long-format CSV: header `seq,ts,type,key,value`, one row per field (one
/// row with an empty key for field-less events).
class CsvTraceSink final : public TraceSink {
 public:
  explicit CsvTraceSink(const std::string& path);
  ~CsvTraceSink() override;

  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }

  void emit(const Event& event) override;
  void flush() override;

 private:
  std::FILE* file_ = nullptr;
  std::mutex mutex_;  // memlint:allow(R1): sink-internal serialization lock
  Stopwatch clock_;
  std::uint64_t seq_ = 0;
};

/// Buffers events in memory (tests, and memlp_solve's --convergence table).
class MemoryTraceSink final : public TraceSink {
 public:
  void emit(const Event& event) override;

  /// Snapshot of everything emitted so far.
  [[nodiscard]] std::vector<Event> events() const;

  /// Snapshot filtered by event type.
  [[nodiscard]] std::vector<Event> events_of(std::string_view type) const;

 private:
  mutable std::mutex mutex_;  // memlint:allow(R1): sink-internal lock
  std::vector<Event> events_;
};

/// Fans one stream out to two sinks (either may be nullptr). Emission is
/// serialized by an internal mutex so that concurrent solver threads deliver
/// whole events to both children in the same order.
class TeeTraceSink final : public TraceSink {
 public:
  TeeTraceSink(TraceSink* first, TraceSink* second)
      : first_(first), second_(second) {}
  void emit(const Event& event) override;
  void flush() override;

 private:
  std::mutex mutex_;  // memlint:allow(R1): sink-internal serialization lock
  TraceSink* first_;
  TraceSink* second_;
};

/// Opens a sink for `spec`: "-"/"stderr" → JSONL on stderr, "*.csv" → CSV
/// file, "*.chrome.json" → Chrome trace-event JSON (obs/chrome_trace.hpp),
/// anything else → JSONL file. Returns nullptr when the file cannot be
/// opened.
std::unique_ptr<TraceSink> open_trace_sink(const std::string& spec);

/// The process-wide sink resolved from MEMLP_TRACE, once: unset or falsey →
/// nullptr (tracing off); a truthy token ("1", "true", ...) → JSONL on
/// stderr; anything else is treated as a path per open_trace_sink. Solvers
/// fall back to this when their options carry no explicit sink.
TraceSink* default_trace_sink();

/// Per-iteration solver record. Fields left at kUnset are omitted from the
/// event, so each solver only reports what it actually measures.
struct IterationRecord {
  const char* solver = "";
  std::size_t iteration = 0;  ///< 1-based within the solve (or attempt).
  std::size_t attempt = 0;    ///< 1-based attempt (crossbar solvers; 0 = n/a).
  double mu = kUnset;         ///< centering parameter the step solved with —
                              ///< Eq. (8) δ·gap/size, or σ·µ_mean in
                              ///< predictor-corrector mode.
  double mu_affine = kUnset;  ///< µ after the affine predictor step (PC mode).
  double sigma = kUnset;      ///< Mehrotra centering weight σ (PC mode).
  double primal_inf = kUnset;
  double dual_inf = kUnset;
  double gap = kUnset;        ///< duality gap zᵀx + yᵀw.
  double objective = kUnset;
  double alpha_p = kUnset;    ///< primal step length θ (Eq. 11).
  double alpha_d = kUnset;    ///< dual step length θ (Eq. 11).
  double merit = kUnset;      ///< crossbar solvers' worst relative residual.
  double condition = kUnset;  ///< Newton-system condition estimate.

  static constexpr double kUnset = -1.0;

  [[nodiscard]] Event to_event() const;
};

/// Final record of one solve; extend the event with solver-specific fields
/// before emitting.
struct SolveSummary {
  const char* solver = "";
  std::string status;
  std::size_t iterations = 0;
  double objective = 0.0;
  /// Set by the software solvers only: the analog summaries stay
  /// deterministic for a pinned seed.
  double wall_seconds = IterationRecord::kUnset;

  [[nodiscard]] Event to_event() const;
};

/// RAII scoped phase timer. On close (or destruction) emits a `phase` event
/// with the phase name and wall_seconds plus any noted fields; an optional
/// on_close hook lets the caller attach counter snapshot deltas that are
/// only known at the end of the span. When a Profiler is active the span
/// also opens a matching profiler frame (named by the phase), so existing
/// phase instrumentation feeds `--profile` for free. Inert when `sink` is
/// nullptr and no profiler is active.
class PhaseSpan {
 public:
  PhaseSpan(TraceSink* sink, const char* solver, std::string phase);
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;
  ~PhaseSpan() { close(); }

  /// True when a sink is attached — callers use this to skip computing
  /// annotation values on the untraced path.
  [[nodiscard]] bool active() const noexcept { return sink_ != nullptr; }

  template <typename T>
  void note(std::string key, T value) {
    if (sink_ != nullptr) event_.with(std::move(key), value);
  }

  /// Runs `hook` just before the event is emitted (typically to note
  /// counter deltas). No-op when inactive.
  void on_close(std::function<void(PhaseSpan&)> hook);

  /// Emits the phase event now; later calls (and the destructor) are no-ops.
  void close();

 private:
  TraceSink* sink_;
  Event event_;
  Stopwatch timer_;
  std::function<void(PhaseSpan&)> hook_;
  bool profiled_ = false;  ///< a profiler frame was opened for this span.
  bool flight_open_ = true;  ///< the recorder's exit record is still owed.
  char flight_tag_[23] = {};  ///< phase name copy for the exit record.
};

}  // namespace memlp::obs
