#include "workload/trace_io.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_set>

#include "util/coding.h"
#include "util/crc32.h"

namespace liferaft::workload {
namespace {

constexpr char kMagic[8] = {'L', 'F', 'R', 'T', 'R', 'C', '0', '1'};

// Encoded sizes: a query's fixed fields (id, arrival, predicate, label
// length, object count) and one object (id, ra, dec, radius).
constexpr size_t kQueryFixedBytes = 8 + 8 + 16 + 4 + 8;
constexpr size_t kObjectBytes = 8 + 8 + 8 + 8;

// An object the join cannot place: a non-finite field, a declination off
// the sphere, or a negative radius. Such an object covers no HTM range (a
// NaN position) or a meaningless one, and fails the replay mid-run or
// completes its query with no work. The finiteness test comes first:
// NaN fails every comparison, so the range tests alone would pass it.
Status CheckObject(uint64_t query_id, uint64_t object_id, double ra,
                   double dec, double radius) {
  const char* what = nullptr;
  if (!std::isfinite(ra) || !std::isfinite(dec) || !std::isfinite(radius)) {
    what = "non-finite ra, dec or radius";
  } else if (std::abs(dec) > 90.0) {
    what = "dec outside [-90, 90]";
  } else if (radius < 0.0) {
    what = "negative radius";
  } else {
    return Status::OK();
  }
  return Status::Corruption(
      "query " + std::to_string(query_id) + " object " +
      std::to_string(object_id) + ": " + what + " (ra " + std::to_string(ra) +
      ", dec " + std::to_string(dec) + ", radius " + std::to_string(radius) +
      ")");
}

}  // namespace

Status SaveTrace(const std::string& path,
                 const std::vector<query::CrossMatchQuery>& trace) {
  std::string payload;
  PutFixed64(&payload, trace.size());
  for (const auto& q : trace) {
    PutFixed64(&payload, q.id);
    PutDouble(&payload, q.arrival_ms);
    PutFloat(&payload, q.predicate.min_mag);
    PutFloat(&payload, q.predicate.max_mag);
    PutFloat(&payload, q.predicate.min_color);
    PutFloat(&payload, q.predicate.max_color);
    PutFixed32(&payload, static_cast<uint32_t>(q.label.size()));
    payload += q.label;
    PutFixed64(&payload, q.objects.size());
    for (const auto& o : q.objects) {
      PutFixed64(&payload, o.id);
      PutDouble(&payload, o.ra_deg);
      PutDouble(&payload, o.dec_deg);
      PutDouble(&payload, o.radius_arcsec);
    }
  }
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutFixed32(&out, Crc32(payload.data(), payload.size()));
  out += payload;

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IOError("cannot create " + path);
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  if (!f) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<std::vector<query::CrossMatchQuery>> LoadTrace(
    const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return Status::IOError("cannot open " + path);
  auto size = static_cast<size_t>(f.tellg());
  if (size < sizeof(kMagic) + 4) {
    return Status::Corruption("trace file too small: " + path);
  }
  std::string data(size, '\0');
  f.seekg(0);
  f.read(data.data(), static_cast<std::streamsize>(size));
  if (!f) return Status::IOError("read failed for " + path);

  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad trace magic in " + path);
  }
  uint32_t stored_crc = GetFixed32(data.data() + sizeof(kMagic));
  const char* payload = data.data() + sizeof(kMagic) + 4;
  size_t payload_size = size - sizeof(kMagic) - 4;
  if (Crc32(payload, payload_size) != stored_crc) {
    return Status::Corruption("trace checksum mismatch in " + path);
  }

  const char* p = payload;
  const char* end = payload + payload_size;
  auto left = [&] { return static_cast<size_t>(end - p); };
  auto need = [&](size_t n) { return left() >= n; };

  if (!need(8)) return Status::Corruption("truncated trace header");
  uint64_t n = GetFixed64(p);
  p += 8;
  // Counts are bounded by the bytes left before anything is reserved, by
  // division so a huge count cannot wrap the product.
  if (n > left() / kQueryFixedBytes) {
    return Status::Corruption("query count exceeds trace size");
  }
  std::vector<query::CrossMatchQuery> trace;
  trace.reserve(n);
  // Every driver keys its outcomes by query id, so a repeated id cannot
  // be replayed.
  std::unordered_set<query::QueryId> ids;
  ids.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!need(8 + 8 + 16 + 4)) return Status::Corruption("truncated query");
    query::CrossMatchQuery q;
    q.id = GetFixed64(p);
    p += 8;
    if (!ids.insert(q.id).second) {
      return Status::Corruption("duplicate query id " + std::to_string(q.id));
    }
    q.arrival_ms = GetDouble(p);
    p += 8;
    q.predicate.min_mag = GetFloat(p);
    p += 4;
    q.predicate.max_mag = GetFloat(p);
    p += 4;
    q.predicate.min_color = GetFloat(p);
    p += 4;
    q.predicate.max_color = GetFloat(p);
    p += 4;
    uint32_t label_len = GetFixed32(p);
    p += 4;
    if (!need(size_t{label_len} + 8)) {
      return Status::Corruption("truncated label");
    }
    q.label.assign(p, label_len);
    p += label_len;
    uint64_t n_objects = GetFixed64(p);
    p += 8;
    if (n_objects > left() / kObjectBytes) {
      return Status::Corruption("truncated objects");
    }
    q.objects.reserve(n_objects);
    for (uint64_t j = 0; j < n_objects; ++j) {
      uint64_t oid = GetFixed64(p);
      p += 8;
      double ra = GetDouble(p);
      p += 8;
      double dec = GetDouble(p);
      p += 8;
      double radius = GetDouble(p);
      p += 8;
      LIFERAFT_RETURN_IF_ERROR(CheckObject(q.id, oid, ra, dec, radius));
      q.objects.push_back(
          query::MakeQueryObject(oid, SkyPoint{ra, dec}, radius));
    }
    trace.push_back(std::move(q));
  }
  if (p != end) return Status::Corruption("trailing bytes in trace file");
  return trace;
}

}  // namespace liferaft::workload
