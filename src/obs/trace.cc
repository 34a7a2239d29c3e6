#include "src/obs/trace.h"

#include <cstdio>
#include <utility>

#include "src/common/json.h"

namespace prism::obs {

namespace {

// Microseconds with nanosecond fractions (Chrome's ts unit is µs).
std::string Micros(int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

// One async begin/end event.
void AsyncEvent(JsonWriter& w, const char* ph, const SpanRecord& s,
                int64_t ts_ns) {
  w.BeginObject()
      .Field("ph", ph)
      .Field("cat", s.cat)
      .Field("name", s.name)
      .Field("id", Hex(s.root))
      .Field("pid", static_cast<uint64_t>(s.host))
      .Field("tid", 0)
      .Raw("ts", Micros(ts_ns));
  if (ph[0] == 'b') {
    w.BeginObject("args")
        .Field("span", Hex(s.id))
        .Field("parent", Hex(s.parent))
        .EndObject();
  }
  w.EndObject();
}

}  // namespace

SpanRecord Tracer::Open(std::string_view name, std::string_view cat,
                        uint32_t host, SpanId parent) {
  SpanRecord rec;
  rec.id = next_id_++;
  rec.parent = parent;
  rec.root = rec.id;
  if (parent != 0) {
    if (parent < rec.id && rec.id - parent <= roots_.size()) {
      rec.root = roots_[(parent - 1) % cap_];
    } else if (auto it = open_.find(parent); it != open_.end()) {
      rec.root = it->second.root;
    }
  }
  if (roots_.size() < cap_) {
    roots_.push_back(rec.root);
  } else if (cap_ != 0) {
    roots_[(rec.id - 1) % cap_] = rec.root;
  }
  rec.name = std::string(name);
  rec.cat = std::string(cat);
  rec.host = host;
  return rec;
}

SpanId Tracer::Begin(std::string_view name, std::string_view cat,
                     uint32_t host, int64_t now_ns, SpanId parent) {
  SpanRecord rec = Open(name, cat, host, parent);
  rec.start_ns = now_ns;
  const SpanId id = rec.id;
  open_.emplace(id, std::move(rec));
  return id;
}

void Tracer::End(SpanId id, int64_t now_ns) {
  auto it = open_.find(id);
  if (it == open_.end()) return;  // already ended, or never begun
  SpanRecord rec = std::move(it->second);
  open_.erase(it);
  rec.end_ns = now_ns;
  done_.push_back(std::move(rec));
  if (done_.size() > cap_) {
    done_.pop_front();
    dropped_++;
  }
}

SpanId Tracer::EmitComplete(std::string_view name, std::string_view cat,
                            uint32_t host, int64_t start_ns, int64_t end_ns,
                            SpanId parent) {
  SpanRecord rec = Open(name, cat, host, parent);
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  const SpanId id = rec.id;
  done_.push_back(std::move(rec));
  if (done_.size() > cap_) {
    done_.pop_front();
    dropped_++;
  }
  return id;
}

SpanId Tracer::ParentOf(SpanId id) const {
  auto it = open_.find(id);
  return it == open_.end() ? 0 : it->second.parent;
}

SpanId Tracer::RootOf(SpanId id) const {
  auto it = open_.find(id);
  return it == open_.end() ? 0 : it->second.root;
}

void Tracer::CollectTree(SpanId root, std::vector<SpanRecord>* out) const {
  if (root == 0 || out == nullptr) return;
  // Finished spans in completion order, then still-open ones by id — both
  // deterministic, so pinned exemplar trees replay bit-identically.
  for (const SpanRecord& s : done_) {
    if (s.root == root) out->push_back(s);
  }
  for (const auto& [id, s] : open_) {
    if (s.root == root) out->push_back(s);
  }
}

JsonWriter Tracer::ChromeJson(
    const std::vector<std::string>& host_names) const {
  JsonWriter w;
  w.BeginObject().Field("displayTimeUnit", "ns");
  w.BeginArray("traceEvents").BreakLines();
  for (size_t h = 0; h < host_names.size(); ++h) {
    w.BeginObject()
        .Field("ph", "M")
        .Field("pid", static_cast<uint64_t>(h))
        .Field("tid", 0)
        .Field("name", "process_name")
        .BeginObject("args")
        .Field("name", host_names[h])
        .EndObject()
        .EndObject();
  }
  auto emit_span = [&](const SpanRecord& s, int64_t end_ns) {
    AsyncEvent(w, "b", s, s.start_ns);
    AsyncEvent(w, "e", s, end_ns);
  };
  for (const SpanRecord& s : done_) emit_span(s, s.end_ns);
  // Flush still-open spans as zero-length so the file is self-contained
  // (std::map iteration keeps this deterministic).
  for (const auto& [id, s] : open_) emit_span(s, s.start_ns);
  w.EndArray();
  // How many finished spans the FIFO cap evicted. A nonzero value means the
  // traceEvents window is incomplete.
  w.Field("droppedSpans", static_cast<uint64_t>(dropped_));
  w.EndObject();
  return w;
}

std::string Tracer::ToChromeJson(
    const std::vector<std::string>& host_names) const {
  return ChromeJson(host_names).str();
}

bool Tracer::WriteChromeJson(const std::string& path,
                             const std::vector<std::string>& host_names) const {
  return ChromeJson(host_names).WriteFile(path);
}

}  // namespace prism::obs
