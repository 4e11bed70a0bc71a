#include "obs/chrome_trace.hpp"

#include <variant>

#include "common/json.hpp"
#include "obs/context.hpp"

namespace memlp::obs {
namespace {

std::string field_value_json(const Field& field) {
  struct Visitor {
    std::string operator()(std::int64_t v) const { return json_number(v); }
    std::string operator()(double v) const { return json_number(v); }
    std::string operator()(bool v) const { return v ? "true" : "false"; }
    std::string operator()(const std::string& v) const {
      return json_string(v);
    }
  };
  return std::visit(Visitor{}, field.value);
}

}  // namespace

ChromeTraceSink::ChromeTraceSink(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ != nullptr)
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", file_);
}

ChromeTraceSink::~ChromeTraceSink() {
  if (file_ == nullptr) return;
  std::fputs("\n]}\n", file_);
  std::fclose(file_);
}

void ChromeTraceSink::emit(const Event& event) {
  if (file_ == nullptr) return;
  // `span` events carry their own clock (profiler epoch); everything else is
  // stamped with this sink's clock as an instant mark.
  std::string record = "{";
  std::string args;
  if (event.type() == "counter") {
    // Cost-ledger counter tracks: same clock as spans (profiler epoch).
    const Field* name = event.find("name");
    const std::string label =
        name != nullptr && std::holds_alternative<std::string>(name->value)
            ? std::get<std::string>(name->value)
            : std::string("counter");
    record += "\"name\":" + json_string(label);
    record += ",\"cat\":\"counter\",\"ph\":\"C\"";
    record += ",\"ts\":" + json_number(event.number("ts_us"));
    record += ",\"pid\":0";
    args = "\"value\":" + json_number(event.number("value"));
  } else if (event.type() == "span") {
    const Field* name = event.find("name");
    const std::string label =
        name != nullptr && std::holds_alternative<std::string>(name->value)
            ? std::get<std::string>(name->value)
            : std::string("span");
    record += "\"name\":" + json_string(label);
    record += ",\"cat\":\"span\",\"ph\":\"X\"";
    record += ",\"ts\":" + json_number(event.number("ts_us"));
    record += ",\"dur\":" + json_number(event.number("dur_us"));
    record += ",\"pid\":0,\"tid\":" +
              json_number(static_cast<std::int64_t>(event.number("tid")));
    if (const Field* path = event.find("path"))
      args = "\"path\":" + field_value_json(*path);
  } else {
    record += "\"name\":" + json_string(event.type());
    record += ",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\"";
    record += ",\"ts\":" + json_number(clock_.seconds() * 1e6);
    record += ",\"pid\":0,\"tid\":0";
    // Instant marks carry the active solve context as args, so a Perfetto
    // query can slice a mixed-batch trace down to one trace_id.
    if (const SolveContext* context = current_solve_context();
        context != nullptr && context->valid()) {
      args += "\"trace_id\":" + json_number(
                  static_cast<std::int64_t>(context->trace_id));
      args += ",\"solve_id\":" + json_number(
                  static_cast<std::int64_t>(context->solve_id));
    }
    for (const Field& field : event.fields()) {
      if (!args.empty()) args += ",";
      args += json_string(field.key) + ":" + field_value_json(field);
    }
  }
  record += ",\"args\":{" + args + "}}";
  std::lock_guard<std::mutex> lock(mutex_);
  if (emitted_++ > 0) std::fputs(",\n", file_);
  std::fputs(record.c_str(), file_);
}

void ChromeTraceSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fflush(file_);
}

}  // namespace memlp::obs
