#include "ratt/obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>

#include "ratt/obs/metrics.hpp"

namespace ratt::obs {

namespace {

// Every to_chars below writes into room the caller has already reserved:
// a shortest round-trip double needs at most 24 chars, a uint64 at most 20.
constexpr std::size_t kMaxDouble = 32;
constexpr std::size_t kMaxU64 = 24;

template <std::size_t N>
char* put(char* p, const char (&literal)[N]) {
  std::memcpy(p, literal, N - 1);
  return p + N - 1;
}

char* put_double(char* p, double v) {
  return std::to_chars(p, p + kMaxDouble, v).ptr;
}

char* put_u64(char* p, std::uint64_t v) {
  return std::to_chars(p, p + kMaxU64, v).ptr;
}

void append_double(std::string& out, double v) {
  char buf[kMaxDouble];
  out.append(buf, put_double(buf, v));
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[kMaxU64];
  out.append(buf, put_u64(buf, v));
}

// Labels are controlled vocabulary, but escape anyway so arbitrary
// outcomes can't break the framing. Full RFC-8259 coverage: every control
// character (< 0x20) must be escaped, not just newline. A byte expands
// to at most 6 ("\u00XX").
char* put_json_string(char* p, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  *p++ = '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && c != '"' && c != '\\') {
      *p++ = c;
      continue;
    }
    *p++ = '\\';
    switch (c) {
      case '"':
      case '\\':
        *p++ = c;
        break;
      case '\n':
        *p++ = 'n';
        break;
      case '\r':
        *p++ = 'r';
        break;
      case '\t':
        *p++ = 't';
        break;
      case '\b':
        *p++ = 'b';
        break;
      case '\f':
        *p++ = 'f';
        break;
      default:
        p = put(p, "u00");
        *p++ = kHex[u >> 4];
        *p++ = kHex[u & 0xF];
    }
  }
  *p++ = '"';
  return p;
}

// Shortest round-trip text of recently formatted doubles, keyed by bit
// pattern. The cost and power columns take a handful of values (one per
// phase and outcome), and std::to_chars on them is most of the cost of a
// line, so a trace mostly copies text it has already formatted.
class DoubleTextCache {
 public:
  char* put(char* p, double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    Entry& e = entries_[(bits * 0x9e3779b97f4a7c15ull) >> (64 - kLog2Entries)];
    if (e.len == 0 || e.bits != bits) {
      e.bits = bits;
      e.len = static_cast<std::uint8_t>(put_double(e.text, v) - e.text);
    }
    std::memcpy(p, e.text, kMaxDouble);
    return p + e.len;
  }

 private:
  static constexpr int kLog2Entries = 6;
  struct Entry {
    std::uint64_t bits = 0;
    std::uint8_t len = 0;  // 0 = empty
    char text[kMaxDouble] = {};
  };
  Entry entries_[1 << kLog2Entries];
};

// Upper bound on one formatted JSONL line, newline included: keys and
// punctuation (< 160 bytes), five doubles, four integers, and both
// labels at their worst-case escaped size.
std::size_t jsonl_bound(const TraceRecord& rec) {
  return 160 + 5 * kMaxDouble + 4 * kMaxU64 +
         6 * (rec.kind.size() + rec.outcome.size());
}

// The one JSONL formatter: writes `rec` (no newline) at p, which must
// have jsonl_bound(rec) bytes of room, and returns the end. Timestamps
// rarely repeat, so only the other doubles go through the cache.
char* format_jsonl(char* p, const TraceRecord& rec, DoubleTextCache& cache) {
  p = put(p, "{\"sim_time_ms\":");
  p = put_double(p, rec.sim_time_ms);
  p = put(p, ",\"device_id\":");
  p = put_u64(p, rec.device_id);
  p = put(p, ",\"kind\":");
  p = put_json_string(p, rec.kind);
  p = put(p, ",\"outcome\":");
  p = put_json_string(p, rec.outcome);
  p = put(p, ",\"prover_ms\":");
  p = cache.put(p, rec.prover_ms);
  p = put(p, ",\"verifier_ms\":");
  p = cache.put(p, rec.verifier_ms);
  p = put(p, ",\"bytes\":");
  p = put_u64(p, rec.bytes);
  p = put(p, ",\"energy_mj\":");
  p = cache.put(p, rec.energy_mj);
  p = put(p, ",\"power_mw\":");
  p = cache.put(p, rec.power_mw);
  p = put(p, ",\"round_id\":");
  p = put_u64(p, rec.round_id);
  p = put(p, ",\"attempt\":");
  p = put_u64(p, rec.attempt);
  *p++ = '}';
  return p;
}

// One merge input: a record's sort key and where it lives.
struct MergeKey {
  double sim_time_ms;
  std::uint64_t device_id;
  const TraceRecord* rec;
};

void add_key(std::vector<MergeKey>& keys, const TraceRecord& rec) {
  keys.push_back(MergeKey{rec.sim_time_ms, rec.device_id, &rec});
}

// The one merge routine. `keys` holds the streams concatenated in order;
// a stable sort on (time, device) leaves ties in (stream, position)
// order. Only the small keys move; each record is copied once, at the end.
std::vector<TraceRecord> merge_keys(std::vector<MergeKey>& keys) {
  std::stable_sort(keys.begin(), keys.end(),
                   [](const MergeKey& a, const MergeKey& b) {
                     if (a.sim_time_ms != b.sim_time_ms) {
                       return a.sim_time_ms < b.sim_time_ms;
                     }
                     return a.device_id < b.device_id;
                   });
  std::vector<TraceRecord> out;
  out.reserve(keys.size());
  for (const MergeKey& key : keys) out.push_back(*key.rec);
  return out;
}

// RFC-4180: quote a field whenever it holds a comma, a quote or a line
// break; embedded quotes double. Plain labels pass through unquoted, so
// existing goldens keep their byte-exact shape.
void append_csv_field(std::string& out, const std::string& s) {
  const bool needs_quoting =
      s.find_first_of(",\"\r\n") != std::string::npos;
  if (!needs_quoting) {
    out += s;
    return;
  }
  out += '"';
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

RingRecorder::RingRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  blocks_.resize((capacity_ + kBlockRecords - 1) >> kBlockShift);
}

void RingRecorder::record(const TraceRecord& rec) {
  ++total_;
  if (size_ < capacity_) {
    std::vector<TraceRecord>& block = blocks_[size_ >> kBlockShift];
    if (block.capacity() == 0) {
      block.reserve(std::min(kBlockRecords, capacity_ - size_));
    }
    block.push_back(rec);
    ++size_;
    return;
  }
  if (dropped_counter_ != nullptr) dropped_counter_->inc();
  blocks_[head_ >> kBlockShift][head_ & (kBlockRecords - 1)] = rec;
  head_ = (head_ + 1 == capacity_) ? 0 : head_ + 1;
}

std::uint64_t RingRecorder::dropped() const { return total_ - size_; }

std::size_t RingRecorder::allocated() const {
  std::size_t slots = 0;
  for (const auto& block : blocks_) slots += block.capacity();
  return slots;
}

std::vector<TraceRecord> RingRecorder::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(size_);
  for_each([&out](const TraceRecord& rec) { out.push_back(rec); });
  return out;
}

std::vector<TraceRecord> merge_traces(
    std::vector<std::vector<TraceRecord>> shards) {
  std::vector<MergeKey> keys;
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  keys.reserve(total);
  for (const auto& shard : shards) {
    for (const auto& rec : shard) add_key(keys, rec);
  }
  return merge_keys(keys);
}

std::vector<TraceRecord> merge_traces(
    std::span<const RingRecorder* const> rings) {
  std::vector<MergeKey> keys;
  std::size_t total = 0;
  for (const RingRecorder* ring : rings) total += ring->size();
  keys.reserve(total);
  for (const RingRecorder* ring : rings) {
    ring->for_each([&keys](const TraceRecord& rec) { add_key(keys, rec); });
  }
  return merge_keys(keys);
}

std::string to_jsonl(const TraceRecord& rec) {
  DoubleTextCache cache;
  std::string out(jsonl_bound(rec), '\0');
  out.resize(
      static_cast<std::size_t>(format_jsonl(out.data(), rec, cache) -
                               out.data()));
  return out;
}

void write_jsonl(std::ostream& out, std::span<const TraceRecord> records) {
  constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
  std::vector<char> block;  // allocated at the first record
  std::size_t used = 0;
  DoubleTextCache cache;
  for (const auto& rec : records) {
    const std::size_t bound = jsonl_bound(rec);
    if (block.size() - used < bound) {
      if (used > 0) out.write(block.data(), static_cast<std::streamsize>(used));
      used = 0;
      // Only a label longer than ~10 KB needs more than one block.
      if (block.size() < bound) block.resize(std::max(kBlockBytes, bound));
    }
    char* end = format_jsonl(block.data() + used, rec, cache);
    *end++ = '\n';
    used = static_cast<std::size_t>(end - block.data());
  }
  if (used > 0) out.write(block.data(), static_cast<std::streamsize>(used));
}

void write_csv(std::ostream& out, std::span<const TraceRecord> records) {
  out << "sim_time_ms,device_id,kind,outcome,prover_ms,verifier_ms,bytes,"
         "energy_mj,power_mw,round_id,attempt\n";
  std::string line;
  for (const auto& rec : records) {
    line.clear();
    append_double(line, rec.sim_time_ms);
    line += ',';
    append_u64(line, rec.device_id);
    line += ',';
    append_csv_field(line, rec.kind);
    line += ',';
    append_csv_field(line, rec.outcome);
    line += ',';
    append_double(line, rec.prover_ms);
    line += ',';
    append_double(line, rec.verifier_ms);
    line += ',';
    append_u64(line, rec.bytes);
    line += ',';
    append_double(line, rec.energy_mj);
    line += ',';
    append_double(line, rec.power_mw);
    line += ',';
    append_u64(line, rec.round_id);
    line += ',';
    append_u64(line, rec.attempt);
    out << line << '\n';
  }
}

}  // namespace ratt::obs
