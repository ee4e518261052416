#include "query/spill.h"

#include <cerrno>
#include <cstring>

#include "query/workload.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace liferaft::query {
namespace {

void AppendQueryObject(std::string* out, const QueryObject& o) {
  PutFixed64(out, o.id);
  PutDouble(out, o.ra_deg);
  PutDouble(out, o.dec_deg);
  PutDouble(out, o.radius_arcsec);
  const auto& ranges = o.htm_ranges.ranges();
  PutFixed32(out, static_cast<uint32_t>(ranges.size()));
  for (const auto& r : ranges) {
    PutFixed64(out, r.lo);
    PutFixed64(out, r.hi);
  }
}

const char* ParseQueryObject(const char* p, QueryObject* o) {
  o->id = GetFixed64(p);
  p += 8;
  o->ra_deg = GetDouble(p);
  p += 8;
  o->dec_deg = GetDouble(p);
  p += 8;
  o->radius_arcsec = GetDouble(p);
  p += 8;
  o->pos = SkyToUnitVector(o->sky());
  uint32_t n_ranges = GetFixed32(p);
  p += 4;
  o->htm_ranges = htm::RangeSet();
  for (uint32_t i = 0; i < n_ranges; ++i) {
    o->htm_ranges.Add(GetFixed64(p), GetFixed64(p + 8));
    p += 16;
  }
  return p;
}

}  // namespace

WorkloadSpillFile::WorkloadSpillFile(std::FILE* file, std::string path)
    : file_(file), path_(std::move(path)) {}

WorkloadSpillFile::~WorkloadSpillFile() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(path_.c_str());  // spill files are run-scoped scratch
  }
}

Result<std::unique_ptr<WorkloadSpillFile>> WorkloadSpillFile::Create(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb+");
  if (f == nullptr) {
    return Status::IOError("cannot create spill file " + path + ": " +
                           strerror(errno));
  }
  return std::unique_ptr<WorkloadSpillFile>(
      new WorkloadSpillFile(f, path));
}

Status WorkloadSpillFile::Spill(storage::BucketIndex bucket,
                                const std::vector<WorkloadEntry>& entries) {
  if (entries.empty()) {
    return Status::InvalidArgument("nothing to spill");
  }
  std::string payload;
  PutFixed32(&payload, static_cast<uint32_t>(entries.size()));
  for (const WorkloadEntry& e : entries) {
    PutFixed64(&payload, e.query_id);
    PutDouble(&payload, e.arrival_ms);
    PutFloat(&payload, e.predicate.min_mag);
    PutFloat(&payload, e.predicate.max_mag);
    PutFloat(&payload, e.predicate.min_color);
    PutFloat(&payload, e.predicate.max_color);
    PutFixed32(&payload, static_cast<uint32_t>(e.objects.size()));
    for (const QueryObject& o : e.objects) AppendQueryObject(&payload, o);
  }
  std::string record;
  PutFixed64(&record, payload.size());
  PutFixed32(&record, Crc32(payload.data(), payload.size()));
  record += payload;

  if (std::fseek(file_, static_cast<long>(end_offset_), SEEK_SET) != 0) {
    return Status::IOError("spill seek failed");
  }
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    return Status::IOError("spill write failed");
  }
  segments_[bucket].push_back(Segment{end_offset_, record.size()});
  end_offset_ += record.size();
  bytes_written_ += record.size();
  ++segments_spilled_;
  return Status::OK();
}

Status WorkloadSpillFile::Restore(storage::BucketIndex bucket,
                                  std::vector<WorkloadEntry>* out,
                                  uint64_t* bytes_read) {
  auto it = segments_.find(bucket);
  if (it == segments_.end()) return Status::OK();  // nothing spilled
  auto failure = [bucket](const char* what) {
    return "spill restore of bucket " + std::to_string(bucket) + ": " + what;
  };
  uint64_t read_total = 0;
  for (const Segment& seg : it->second) {
    std::vector<char> record(seg.length);
    if (std::fseek(file_, static_cast<long>(seg.offset), SEEK_SET) != 0) {
      return Status::IOError(failure("seek failed"));
    }
    if (std::fread(record.data(), 1, record.size(), file_) !=
        record.size()) {
      return Status::IOError(failure("read failed"));
    }
    read_total += seg.length;

    uint64_t payload_size = GetFixed64(record.data());
    uint32_t crc = GetFixed32(record.data() + 8);
    if (payload_size + 12 != record.size()) {
      return Status::Corruption(failure("segment length mismatch"));
    }
    const char* payload = record.data() + 12;
    if (Crc32(payload, payload_size) != crc) {
      return Status::Corruption(failure("segment checksum mismatch"));
    }

    const char* p = payload;
    uint32_t n_entries = GetFixed32(p);
    p += 4;
    for (uint32_t e = 0; e < n_entries; ++e) {
      WorkloadEntry entry;
      entry.query_id = GetFixed64(p);
      p += 8;
      entry.arrival_ms = GetDouble(p);
      p += 8;
      entry.predicate.min_mag = GetFloat(p);
      p += 4;
      entry.predicate.max_mag = GetFloat(p);
      p += 4;
      entry.predicate.min_color = GetFloat(p);
      p += 4;
      entry.predicate.max_color = GetFloat(p);
      p += 4;
      uint32_t n_objects = GetFixed32(p);
      p += 4;
      entry.objects.reserve(n_objects);
      for (uint32_t i = 0; i < n_objects; ++i) {
        QueryObject o;
        p = ParseQueryObject(p, &o);
        entry.objects.push_back(std::move(o));
      }
      out->push_back(std::move(entry));
    }
    ++segments_restored_;
  }
  segments_.erase(it);
  if (bytes_read != nullptr) *bytes_read = read_total;
  return Status::OK();
}

bool WorkloadSpillFile::HasSegments(storage::BucketIndex bucket) const {
  return segments_.count(bucket) > 0;
}

}  // namespace liferaft::query
