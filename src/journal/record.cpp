#include "journal/record.hpp"

#include <array>
#include <charconv>
#include <cmath>

#include "util/error.hpp"

namespace flotilla::journal {

namespace {

// Room for a time's text. Journal times are virtual seconds; one whose
// fixed form needs more (a magnitude past ~1e54) is refused rather than
// cut short.
using TimeBuffer = std::array<char, 64>;

// Fixed notation with 9 fractional digits is the journal's canonical time
// form: std::to_chars(fixed, 9) prints exactly what printf's %.9f prints,
// the precision keeps the bytes stable across runs, and re-encoding a
// decoded record reproduces the same text (decimal -> nearest double ->
// same decimal). Empty if `t` is not finite or its text does not fit.
std::string_view format_time(sim::Time t, TimeBuffer& buf) {
  if (!std::isfinite(t)) return {};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(),
                                       t, std::chars_format::fixed, 9);
  if (ec != std::errc{}) return {};
  return {buf.data(), static_cast<std::size_t>(end - buf.data())};
}

void put_key(std::string& line, std::string_view key) {
  line += '|';
  line += key;
  line += '=';
}

void put(std::string& line, std::string_view key, std::string_view value) {
  for (const char c : value) {
    if (c == '|' || c == '\n') {
      util::raise("journal: field '", key, "' contains a record delimiter: ",
                  value);
    }
  }
  put_key(line, key);
  line += value;
}

template <typename Int>
void put_int(std::string& line, std::string_view key, Int value) {
  std::array<char, 24> buf;  // 20 digits and a sign at most
  const char* const end =
      std::to_chars(buf.data(), buf.data() + buf.size(), value).ptr;
  put_key(line, key);
  line.append(buf.data(), static_cast<std::size_t>(end - buf.data()));
}

void put_time(std::string& line, sim::Time t) {
  TimeBuffer buf;
  const std::string_view text = format_time(t, buf);
  if (text.empty()) {
    util::raise("journal: time ", t, " is not finite or does not fit a ",
                buf.size(), "-byte field");
  }
  put_key(line, "t");
  line += text;
}

// The tag and the type's fields, in canonical order.
void put_fields(const Record& r, std::string& line) {
  line += to_string(r.type);
  switch (r.type) {
    case RecordType::kHeader:
      put_int(line, "v", 1);
      put_int(line, "seed", r.seed);
      put(line, "spec", r.spec);
      break;
    case RecordType::kReady:
      put_time(line, r.time);
      break;
    case RecordType::kTransition:
      put_time(line, r.time);
      put(line, "uid", r.uid);
      put(line, "from", r.from);
      put(line, "to", r.to);
      put(line, "backend", r.backend);
      put_int(line, "attempt", r.attempt);
      break;
    case RecordType::kAlloc:
      put_time(line, r.time);
      put_int(line, "node", r.node);
      put_int(line, "cores", r.cores);
      put_int(line, "gpus", r.gpus);
      break;
    case RecordType::kFault:
      put_time(line, r.time);
      put(line, "kind", r.kind);
      put(line, "backend", r.backend);
      put_int(line, "index", r.index);
      put_int(line, "count", r.count);
      break;
    case RecordType::kEnd:
      put_time(line, r.time);
      put_int(line, "done", r.done);
      put_int(line, "failed", r.failed);
      put_int(line, "canceled", r.canceled);
      put_int(line, "events", r.events);
      break;
  }
}

// Eight lowercase hex digits, as %08x.
void put_hex32(std::string& line, std::uint32_t value) {
  constexpr std::string_view kDigits = "0123456789abcdef";
  std::array<char, 8> hex;
  for (auto it = hex.rbegin(); it != hex.rend(); ++it) {
    *it = kDigits[value & 0xfu];
    value >>= 4;
  }
  line.append(hex.data(), hex.size());
}

}  // namespace

std::string_view to_string(RecordType type) {
  switch (type) {
    case RecordType::kHeader:
      return "journal";
    case RecordType::kReady:
      return "ready";
    case RecordType::kTransition:
      return "task";
    case RecordType::kAlloc:
      return "alloc";
    case RecordType::kFault:
      return "fault";
    case RecordType::kEnd:
      return "end";
  }
  return "?";
}

std::uint32_t fnv1a32(std::string_view text) {
  std::uint32_t h = 2166136261u;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

void Record::encode_to(std::string& out) const {
  const std::size_t start = out.size();
  try {
    put_fields(*this, out);
    out += "|h=";
    put_hex32(out, fnv1a32(std::string_view(out).substr(start)));
    out += '\n';
  } catch (...) {
    out.resize(start);
    throw;
  }
}

std::string Record::encode() const {
  std::string line;
  encode_to(line);
  return line;
}

bool parse_time(std::string_view text, sim::Time& out) {
  const char* const last = text.data() + text.size();
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), last, value, std::chars_format::fixed);
  if (ec != std::errc{} || end != last) return false;
  TimeBuffer buf;
  if (format_time(value, buf) != text) return false;  // also refuses inf/nan
  out = value;
  return true;
}

Record header_record(std::uint64_t seed, std::string spec) {
  Record r;
  r.type = RecordType::kHeader;
  r.seed = seed;
  r.spec = std::move(spec);
  return r;
}

Record ready_record(sim::Time time) {
  Record r;
  r.type = RecordType::kReady;
  r.time = time;
  return r;
}

Record transition_record(sim::Time time, std::string uid, std::string from,
                         std::string to, std::string backend,
                         std::int64_t attempt) {
  Record r;
  r.type = RecordType::kTransition;
  r.time = time;
  r.uid = std::move(uid);
  r.from = std::move(from);
  r.to = std::move(to);
  r.backend = std::move(backend);
  r.attempt = attempt;
  return r;
}

Record alloc_record(sim::Time time, std::int64_t node, std::int64_t cores,
                    std::int64_t gpus) {
  Record r;
  r.type = RecordType::kAlloc;
  r.time = time;
  r.node = node;
  r.cores = cores;
  r.gpus = gpus;
  return r;
}

Record fault_record(sim::Time time, std::string kind, std::string backend,
                    std::int64_t index, std::int64_t count) {
  Record r;
  r.type = RecordType::kFault;
  r.time = time;
  r.kind = std::move(kind);
  r.backend = std::move(backend);
  r.index = index;
  r.count = count;
  return r;
}

Record end_record(sim::Time time, std::int64_t done, std::int64_t failed,
                  std::int64_t canceled, std::uint64_t events) {
  Record r;
  r.type = RecordType::kEnd;
  r.time = time;
  r.done = done;
  r.failed = failed;
  r.canceled = canceled;
  r.events = events;
  return r;
}

}  // namespace flotilla::journal
