#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace flotilla::obs {

namespace {

// Fixed-precision number formatting: iostream state (precision, locale)
// must not leak into the export, and the same double must always render
// the same bytes (the .prof determinism contract).
std::string fmt_time_us(sim::Time t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", t * 1e6);
  return buf;
}

std::string fmt_time_s(sim::Time t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", t);
  return buf;
}

std::string fmt_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* kind_name(RecordKind kind) {
  switch (kind) {
    case RecordKind::kBegin:
      return "B";
    case RecordKind::kEnd:
      return "E";
    case RecordKind::kInstant:
      return "i";
    case RecordKind::kCounter:
      return "C";
  }
  return "?";
}

}  // namespace

void write_chrome_trace(const Tracer& tracer, std::ostream& os) {
  // Lane (tid) per timeline row: task spans get the task's lane (entity),
  // component spans/instants/counters the component's. Assigned in
  // first-seen chronological order -> deterministic file.
  std::map<std::string, int> lanes;
  auto lane_of = [&lanes](const Record& r) {
    const std::string& key = r.entity.empty() ? r.component : r.entity;
    const auto [it, inserted] =
        lanes.emplace(key, static_cast<int>(lanes.size()) + 1);
    (void)inserted;
    return it->second;
  };

  // Pair begin/end records per (type, component, entity), LIFO so nested
  // same-key spans close innermost-first.
  struct OpenSpan {
    sim::Time begin;
    double value;
    int lane;
  };
  std::map<std::string, std::vector<OpenSpan>> open;
  auto span_key = [](const Record& r) {
    std::string key;
    key.reserve(r.component.size() + r.entity.size() + 8);
    key += to_string(r.type);
    key += '\x1f';
    key += r.component;
    key += '\x1f';
    key += r.entity;
    return key;
  };

  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&os, &first](const std::string& event) {
    if (!first) os << ",";
    first = false;
    os << "\n" << event;
  };

  std::uint64_t unmatched_ends = 0;
  tracer.for_each([&](const Record& r) {
    const int lane = lane_of(r);
    switch (r.kind) {
      case RecordKind::kBegin:
        open[span_key(r)].push_back(OpenSpan{r.time, r.value, lane});
        return;
      case RecordKind::kEnd: {
        auto it = open.find(span_key(r));
        if (it == open.end() || it->second.empty()) {
          // Begin fell off the ring: keep the end visible as an instant.
          ++unmatched_ends;
          emit("{\"name\":\"" + std::string(to_string(r.type)) +
               " (begin dropped)\",\"cat\":\"" + json_escape(r.component) +
               "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + fmt_time_us(r.time) +
               ",\"pid\":1,\"tid\":" + std::to_string(lane) + "}");
          return;
        }
        const OpenSpan span = it->second.back();
        it->second.pop_back();
        emit("{\"name\":\"" + std::string(to_string(r.type)) +
             "\",\"cat\":\"" + json_escape(r.component) +
             "\",\"ph\":\"X\",\"ts\":" + fmt_time_us(span.begin) +
             ",\"dur\":" + fmt_time_us(r.time - span.begin) +
             ",\"pid\":1,\"tid\":" + std::to_string(span.lane) +
             ",\"args\":{\"entity\":\"" + json_escape(r.entity) +
             "\",\"value\":" + fmt_value(r.value) + "}}");
        return;
      }
      case RecordKind::kInstant:
        emit("{\"name\":\"" + std::string(to_string(r.type)) +
             "\",\"cat\":\"" + json_escape(r.component) +
             "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + fmt_time_us(r.time) +
             ",\"pid\":1,\"tid\":" + std::to_string(lane) +
             ",\"args\":{\"entity\":\"" + json_escape(r.entity) +
             "\",\"value\":" + fmt_value(r.value) + "}}");
        return;
      case RecordKind::kCounter:
        emit("{\"name\":\"" + json_escape(r.component) + "." +
             json_escape(r.entity) + "\",\"ph\":\"C\",\"ts\":" +
             fmt_time_us(r.time) + ",\"pid\":1,\"args\":{\"value\":" +
             fmt_value(r.value) + "}}");
        return;
    }
  });

  // Spans still open at export time (e.g. a trace cut mid-run) become
  // zero-duration events at their begin time, flagged in the name.
  std::uint64_t unclosed = 0;
  for (const auto& [key, spans] : open) {
    const auto first_sep = key.find('\x1f');
    const std::string name = key.substr(0, first_sep);
    const auto second_sep = key.find('\x1f', first_sep + 1);
    const std::string component =
        key.substr(first_sep + 1, second_sep - first_sep - 1);
    const std::string entity = key.substr(second_sep + 1);
    for (const OpenSpan& span : spans) {
      ++unclosed;
      emit("{\"name\":\"" + name + " (unclosed)\",\"cat\":\"" +
           json_escape(component) + "\",\"ph\":\"X\",\"ts\":" +
           fmt_time_us(span.begin) + ",\"dur\":0,\"pid\":1,\"tid\":" +
           std::to_string(span.lane) + ",\"args\":{\"entity\":\"" +
           json_escape(entity) + "\"}}");
    }
  }

  // Lane names so Perfetto shows task uids / components, not raw tids.
  for (const auto& [name, tid] : lanes) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
         std::to_string(tid) + ",\"args\":{\"name\":\"" +
         json_escape(name) + "\"}}");
  }

  char meta[160];
  std::snprintf(meta, sizeof(meta),
                "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"recorded\":%" PRIu64 ",\"dropped\":%" PRIu64
                ",\"unclosed\":%" PRIu64 ",\"unmatched_ends\":%" PRIu64 "}}",
                tracer.recorded(), tracer.dropped(), unclosed,
                unmatched_ends);
  os << meta << "\n";
}

void write_prof(const Tracer& tracer, std::ostream& os) {
  os << "#flotilla-prof,v1,records=" << tracer.size()
     << ",dropped=" << tracer.dropped() << "\n";
  os << "time,comp,event,kind,entity,value\n";
  tracer.for_each([&os](const Record& r) {
    os << fmt_time_s(r.time) << "," << r.component << ","
       << to_string(r.type) << "," << kind_name(r.kind) << "," << r.entity
       << "," << fmt_value(r.value) << "\n";
  });
}

}  // namespace flotilla::obs
