#include "obs/trace.hpp"

#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/context.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"

namespace memlp::obs {
namespace {

std::string field_to_json(const Field& field) {
  struct Visitor {
    std::string operator()(std::int64_t v) const { return json_number(v); }
    std::string operator()(double v) const { return json_number(v); }
    std::string operator()(bool v) const { return v ? "true" : "false"; }
    std::string operator()(const std::string& v) const {
      return json_string(v);
    }
  };
  return json_string(field.key) + ":" + std::visit(Visitor{}, field.value);
}

std::string field_to_csv_value(const Field& field) {
  struct Visitor {
    std::string operator()(std::int64_t v) const { return std::to_string(v); }
    std::string operator()(double v) const { return json_number(v); }
    std::string operator()(bool v) const { return v ? "true" : "false"; }
    std::string operator()(const std::string& v) const { return v; }
  };
  return std::visit(Visitor{}, field.value);
}

}  // namespace

const Field* Event::find(std::string_view key) const noexcept {
  for (const Field& field : fields_)
    if (field.key == key) return &field;
  return nullptr;
}

double Event::number(std::string_view key, double fallback) const noexcept {
  const Field* field = find(key);
  if (field == nullptr) return fallback;
  if (const auto* d = std::get_if<double>(&field->value)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&field->value))
    return static_cast<double>(*i);
  return fallback;
}

std::string Event::to_json() const {
  std::string out = "{\"type\":" + json_string(type_);
  for (const Field& field : fields_) out += "," + field_to_json(field);
  out += "}";
  return out;
}

// --- JsonlTraceSink ---------------------------------------------------------

JsonlTraceSink::JsonlTraceSink(const std::string& path) {
  if (path == "-" || path == "stderr") {
    file_ = stderr;
  } else {
    file_ = std::fopen(path.c_str(), "w");
    owned_ = true;
  }
}

JsonlTraceSink::~JsonlTraceSink() {
  if (file_ != nullptr && owned_) std::fclose(file_);
}

void JsonlTraceSink::emit(const Event& event) {
  if (file_ == nullptr) return;
  // Stamp seq/ts ahead of the payload so every line is self-describing.
  std::string line = "{\"type\":" + json_string(event.type());
  // Context fields are stamped by the sink, not the instrumentation site, so
  // the same solver code yields context-free lines outside a SolveContext
  // (keeping the engine golden traces bit-exact) and attributable lines
  // inside one.
  if (const SolveContext* context = current_solve_context();
      context != nullptr && context->valid()) {
    line += ",\"trace_id\":" + std::to_string(context->trace_id);
    line += ",\"solve_id\":" + std::to_string(context->solve_id);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  line += ",\"seq\":" + std::to_string(seq_++);
  line += ",\"ts\":" + json_number(clock_.seconds());
  for (const Field& field : event.fields()) line += "," + field_to_json(field);
  line += "}\n";
  std::fputs(line.c_str(), file_);
}

void JsonlTraceSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fflush(file_);
}

// --- CsvTraceSink -----------------------------------------------------------

CsvTraceSink::CsvTraceSink(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ != nullptr) std::fputs("seq,ts,type,key,value\n", file_);
}

CsvTraceSink::~CsvTraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void CsvTraceSink::emit(const Event& event) {
  if (file_ == nullptr) return;
  const SolveContext* context = current_solve_context();
  if (context != nullptr && !context->valid()) context = nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string prefix = std::to_string(seq_++) + "," +
                             json_number(clock_.seconds()) + "," +
                             csv_escape(event.type()) + ",";
  // Long format: the active context becomes ordinary key/value rows of the
  // same event (same seq), present only when a context is installed.
  if (context != nullptr) {
    std::fputs(
        (prefix + "trace_id," + std::to_string(context->trace_id) + "\n")
            .c_str(),
        file_);
    std::fputs(
        (prefix + "solve_id," + std::to_string(context->solve_id) + "\n")
            .c_str(),
        file_);
  }
  if (event.fields().empty()) {
    if (context == nullptr) std::fputs((prefix + ",\n").c_str(), file_);
    return;
  }
  for (const Field& field : event.fields()) {
    const std::string line = prefix + csv_escape(field.key) + "," +
                             csv_escape(field_to_csv_value(field)) + "\n";
    std::fputs(line.c_str(), file_);
  }
}

void CsvTraceSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fflush(file_);
}

// --- MemoryTraceSink --------------------------------------------------------

void MemoryTraceSink::emit(const Event& event) {
  // Stored copies carry the emitting thread's context (when one is active),
  // mirroring what the streaming sinks stamp on their lines — tests filter
  // events() by trace_id exactly like a JSONL consumer would.
  Event annotated = event;
  annotate_context(annotated);
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(annotated));
}

std::vector<Event> MemoryTraceSink::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::vector<Event> MemoryTraceSink::events_of(std::string_view type) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  for (const Event& event : events_)
    if (event.type() == type) out.push_back(event);
  return out;
}

// --- TeeTraceSink -----------------------------------------------------------

void TeeTraceSink::emit(const Event& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (first_ != nullptr) first_->emit(event);
  if (second_ != nullptr) second_->emit(event);
}

void TeeTraceSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (first_ != nullptr) first_->flush();
  if (second_ != nullptr) second_->flush();
}

// --- factories --------------------------------------------------------------

std::unique_ptr<TraceSink> open_trace_sink(const std::string& spec) {
  if (spec.size() >= 4 && spec.compare(spec.size() - 4, 4, ".csv") == 0) {
    auto sink = std::make_unique<CsvTraceSink>(spec);
    if (!sink->ok()) return nullptr;
    return sink;
  }
  constexpr std::string_view kChrome = ".chrome.json";
  if (spec.size() >= kChrome.size() &&
      spec.compare(spec.size() - kChrome.size(), kChrome.size(), kChrome) ==
          0) {
    auto sink = std::make_unique<ChromeTraceSink>(spec);
    if (!sink->ok()) return nullptr;
    return sink;
  }
  auto sink = std::make_unique<JsonlTraceSink>(spec);
  if (!sink->ok()) return nullptr;
  return sink;
}

TraceSink* default_trace_sink() {
  // Resolved once per process; the unique_ptr keeps the sink alive for the
  // program's lifetime (stream destinations flush on exit via fclose).
  static const std::unique_ptr<TraceSink> sink =
      []() -> std::unique_ptr<TraceSink> {
    const char* raw = std::getenv("MEMLP_TRACE");
    if (raw == nullptr || *raw == 0) return nullptr;
    const std::string value(raw);
    if (value == "0" || value == "false" || value == "no" || value == "off")
      return nullptr;
    if (value == "1" || value == "true" || value == "yes" || value == "on")
      return std::make_unique<JsonlTraceSink>("stderr");
    return open_trace_sink(value);
  }();
  return sink.get();
}

// --- typed records ----------------------------------------------------------

namespace {

void with_if_set(Event& event, const char* key, double value) {
  if (value != IterationRecord::kUnset) event.with(key, value);
}

}  // namespace

Event IterationRecord::to_event() const {
  Event event("iteration");
  event.with("solver", solver).with("iteration", iteration);
  if (attempt != 0) event.with("attempt", attempt);
  with_if_set(event, "mu", mu);
  with_if_set(event, "mu_affine", mu_affine);
  with_if_set(event, "sigma", sigma);
  with_if_set(event, "primal_inf", primal_inf);
  with_if_set(event, "dual_inf", dual_inf);
  with_if_set(event, "gap", gap);
  with_if_set(event, "objective", objective);
  with_if_set(event, "alpha_p", alpha_p);
  with_if_set(event, "alpha_d", alpha_d);
  with_if_set(event, "merit", merit);
  with_if_set(event, "condition", condition);
  return event;
}

Event SolveSummary::to_event() const {
  Event event("solve_summary");
  event.with("solver", solver)
      .with("status", status)
      .with("iterations", iterations)
      .with("objective", objective);
  with_if_set(event, "wall_seconds", wall_seconds);
  return event;
}

// --- PhaseSpan --------------------------------------------------------------

PhaseSpan::PhaseSpan(TraceSink* sink, const char* solver, std::string phase)
    : sink_(sink), event_("phase") {
  // The flight recorder sees every span, traced or not — phase transitions
  // are the skeleton a post-mortem dump hangs everything else on.
  flight_record(FlightEventKind::kPhaseEnter, phase.c_str());
  std::strncpy(flight_tag_, phase.c_str(), sizeof(flight_tag_) - 1);
  // Open the profiler frame first: the phase string is moved into the event
  // below, and the profiler needs it by name.
  if (Profiler* profiler = Profiler::active()) {
    profiler->enter(phase.c_str());
    profiled_ = true;
  }
  if (sink_ != nullptr)
    event_.with("solver", solver).with("phase", std::move(phase));
}

void PhaseSpan::on_close(std::function<void(PhaseSpan&)> hook) {
  if (sink_ != nullptr) hook_ = std::move(hook);
}

void PhaseSpan::close() {
  if (flight_open_) {
    flight_open_ = false;
    flight_record(FlightEventKind::kPhaseExit, flight_tag_, timer_.seconds());
  }
  if (profiled_) {
    profiled_ = false;
    // The profiler that opened the frame is still active by contract
    // (set_active is documented as unsafe against in-flight spans).
    if (Profiler* profiler = Profiler::active()) profiler->leave();
  }
  if (sink_ == nullptr) return;
  if (hook_) hook_(*this);
  event_.with("wall_seconds", timer_.seconds());
  TraceSink* sink = sink_;
  sink_ = nullptr;  // before emit: the hook must not re-enter close().
  sink->emit(event_);
}

}  // namespace memlp::obs
