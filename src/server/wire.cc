#include "server/wire.h"

#include <cstring>

namespace rma::server {

namespace {

/// Doubles travel as IEEE-754 bit patterns; memcpy is the sanctioned
/// bit_cast in C++17.
uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// The wire is little-endian; on a little-endian host the contiguous tails
/// of fixed-width columns ARE the wire representation, so whole columns
/// move with one memcpy. Big-endian hosts take the byte-shuffling path.
bool LittleEndianHost() {
  const uint32_t probe = 1;
  unsigned char byte;
  std::memcpy(&byte, &probe, 1);
  return byte == 1;
}

}  // namespace

Status SendFrame(Socket& sock, MessageType type, const std::string& payload) {
  if (payload.size() + 1 > kMaxFrameBytes) {
    return Status::Invalid("frame payload exceeds kMaxFrameBytes");
  }
  const uint32_t len = static_cast<uint32_t>(payload.size()) + 1;
  char head[5];
  head[0] = static_cast<char>(len & 0xff);
  head[1] = static_cast<char>((len >> 8) & 0xff);
  head[2] = static_cast<char>((len >> 16) & 0xff);
  head[3] = static_cast<char>((len >> 24) & 0xff);
  head[4] = static_cast<char>(type);
  // One send for header+type keeps small control frames in one segment;
  // the payload follows separately to avoid copying row batches.
  RMA_RETURN_NOT_OK(sock.SendAll(head, sizeof(head)));
  if (!payload.empty()) {
    RMA_RETURN_NOT_OK(sock.SendAll(payload.data(), payload.size()));
  }
  return Status::OK();
}

Result<Frame> RecvFrame(Socket& sock) {
  unsigned char head[4];
  RMA_RETURN_NOT_OK(sock.RecvAll(head, sizeof(head)));
  const uint32_t len = static_cast<uint32_t>(head[0]) |
                       (static_cast<uint32_t>(head[1]) << 8) |
                       (static_cast<uint32_t>(head[2]) << 16) |
                       (static_cast<uint32_t>(head[3]) << 24);
  if (len == 0) return Status::IoError("zero-length frame");
  if (len > kMaxFrameBytes) {
    return Status::IoError("frame length " + std::to_string(len) +
                           " exceeds limit");
  }
  unsigned char type;
  RMA_RETURN_NOT_OK(sock.RecvAll(&type, 1));
  Frame frame;
  frame.type = static_cast<MessageType>(type);
  frame.payload.resize(len - 1);
  if (len > 1) {
    RMA_RETURN_NOT_OK(sock.RecvAll(frame.payload.data(), frame.payload.size()));
  }
  return frame;
}

void WireWriter::PutU32(uint32_t v) {
  out_.push_back(static_cast<char>(v & 0xff));
  out_.push_back(static_cast<char>((v >> 8) & 0xff));
  out_.push_back(static_cast<char>((v >> 16) & 0xff));
  out_.push_back(static_cast<char>((v >> 24) & 0xff));
}

void WireWriter::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v & 0xffffffffu));
  PutU32(static_cast<uint32_t>(v >> 32));
}

void WireWriter::PutF64(double v) { PutU64(DoubleBits(v)); }

void WireWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s);
}

void WireWriter::PutRaw(const void* p, size_t n) {
  out_.append(static_cast<const char*>(p), n);
}

Status WireReader::Need(size_t n) const {
  if (pos_ + n > data_.size()) {
    return Status::IoError("truncated frame: need " + std::to_string(n) +
                           " bytes at offset " + std::to_string(pos_) +
                           " of " + std::to_string(data_.size()));
  }
  return Status::OK();
}

Result<uint8_t> WireReader::GetU8() {
  RMA_RETURN_NOT_OK(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> WireReader::GetU32() {
  RMA_RETURN_NOT_OK(Need(4));
  const auto* p = reinterpret_cast<const unsigned char*>(data_.data() + pos_);
  pos_ += 4;
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

Result<uint64_t> WireReader::GetU64() {
  RMA_ASSIGN_OR_RETURN(uint32_t lo, GetU32());
  RMA_ASSIGN_OR_RETURN(uint32_t hi, GetU32());
  return static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
}

Result<int64_t> WireReader::GetI64() {
  RMA_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> WireReader::GetF64() {
  RMA_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return BitsDouble(v);
}

Status WireReader::GetRaw(void* out, size_t n) {
  RMA_RETURN_NOT_OK(Need(n));
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Result<std::string> WireReader::GetString() {
  RMA_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  RMA_RETURN_NOT_OK(Need(len));
  std::string out = data_.substr(pos_, len);
  pos_ += len;
  return out;
}

std::string EncodeResultHeader(const Schema& schema) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(schema.num_attributes()));
  for (const Attribute& attr : schema.attributes()) {
    w.PutString(attr.name);
    w.PutU8(static_cast<uint8_t>(attr.type));
  }
  return w.Take();
}

std::string EncodeRowBatch(const Relation& rel, int64_t begin, int64_t count) {
  WireWriter w;
  const int ncols = rel.num_columns();
  // Fixed-width columns dominate result sets here; reserving their exact
  // footprint up front keeps the append loop realloc-free.
  w.Reserve(4 + static_cast<size_t>(count) * static_cast<size_t>(ncols) * 8);
  w.PutU32(static_cast<uint32_t>(count));
  const bool le_host = LittleEndianHost();
  for (int col = 0; col < ncols; ++col) {
    const Bat& bat = *rel.column(col);
    switch (rel.schema().attribute(col).type) {
      case DataType::kInt64: {
        const auto* typed = dynamic_cast<const Int64Bat*>(&bat);
        if (typed != nullptr && le_host) {
          w.PutRaw(typed->data().data() + begin,
                   static_cast<size_t>(count) * sizeof(int64_t));
        } else {
          for (int64_t row = begin; row < begin + count; ++row) {
            w.PutI64(std::get<int64_t>(bat.GetValue(row)));
          }
        }
        break;
      }
      case DataType::kDouble: {
        // A contiguous tail (DoubleBat) goes out in one copy; any other
        // representation through the accessor.
        const double* data = bat.ContiguousDoubleData();
        if (data != nullptr && le_host) {
          w.PutRaw(data + begin, static_cast<size_t>(count) * sizeof(double));
        } else {
          for (int64_t row = begin; row < begin + count; ++row) {
            w.PutF64(bat.GetDouble(row));
          }
        }
        break;
      }
      case DataType::kString: {
        for (int64_t row = begin; row < begin + count; ++row) {
          w.PutString(bat.GetString(row));
        }
        break;
      }
    }
  }
  return w.Take();
}

Result<Schema> DecodeResultHeader(const std::string& payload) {
  WireReader r(payload);
  RMA_ASSIGN_OR_RETURN(uint32_t ncols, r.GetU32());
  // Each column needs at least a length-prefixed name (4 bytes) and a type
  // tag; a claimed count the payload cannot possibly hold is rejected before
  // it sizes an allocation.
  if (static_cast<uint64_t>(ncols) * 5 > r.Remaining()) {
    return Status::IoError("result header claims " + std::to_string(ncols) +
                           " columns but only " +
                           std::to_string(r.Remaining()) + " bytes follow");
  }
  std::vector<Attribute> attrs;
  attrs.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    Attribute attr;
    RMA_ASSIGN_OR_RETURN(attr.name, r.GetString());
    RMA_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return Status::IoError("unknown column type tag " + std::to_string(type));
    }
    attr.type = static_cast<DataType>(type);
    attrs.push_back(std::move(attr));
  }
  return Schema::Make(std::move(attrs));
}

Result<Relation> DecodeRowBatch(const Schema& schema,
                                const std::string& payload) {
  WireReader r(payload);
  RMA_ASSIGN_OR_RETURN(uint32_t nrows, r.GetU32());
  const int ncols = schema.num_attributes();
  const bool le_host = LittleEndianHost();
  // The row count is untrusted: bound it by what the payload can actually
  // hold before sizing any allocation (8 bytes per fixed-width cell, at
  // least a 4-byte length prefix per string cell). A corrupt or hostile
  // count then fails as a clean IoError instead of a ~34 GB bad_alloc.
  auto check_claimed = [&r, nrows](size_t min_bytes_per_row) -> Status {
    if (static_cast<uint64_t>(nrows) * min_bytes_per_row > r.Remaining()) {
      return Status::IoError("row batch claims " + std::to_string(nrows) +
                             " rows but only " +
                             std::to_string(r.Remaining()) +
                             " payload bytes remain");
    }
    return Status::OK();
  };
  std::vector<BatPtr> columns;
  columns.reserve(static_cast<size_t>(ncols));
  for (int col = 0; col < ncols; ++col) {
    switch (schema.attribute(col).type) {
      case DataType::kInt64: {
        RMA_RETURN_NOT_OK(check_claimed(sizeof(int64_t)));
        std::vector<int64_t> data(nrows);
        if (le_host) {
          RMA_RETURN_NOT_OK(
              r.GetRaw(data.data(), data.size() * sizeof(int64_t)));
        } else {
          for (auto& v : data) {
            RMA_ASSIGN_OR_RETURN(v, r.GetI64());
          }
        }
        columns.push_back(MakeInt64Bat(std::move(data)));
        break;
      }
      case DataType::kDouble: {
        RMA_RETURN_NOT_OK(check_claimed(sizeof(double)));
        std::vector<double> data(nrows);
        if (le_host) {
          RMA_RETURN_NOT_OK(
              r.GetRaw(data.data(), data.size() * sizeof(double)));
        } else {
          for (auto& v : data) {
            RMA_ASSIGN_OR_RETURN(v, r.GetF64());
          }
        }
        columns.push_back(MakeDoubleBat(std::move(data)));
        break;
      }
      case DataType::kString: {
        RMA_RETURN_NOT_OK(check_claimed(/*length prefix*/ 4));
        std::vector<std::string> data(nrows);
        for (auto& v : data) {
          RMA_ASSIGN_OR_RETURN(v, r.GetString());
        }
        columns.push_back(MakeStringBat(std::move(data)));
        break;
      }
    }
  }
  if (!r.AtEnd()) return Status::IoError("trailing bytes after row batch");
  return Relation::Make(schema, std::move(columns), "batch");
}

std::string EncodeError(const Status& status) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(status.code()));
  w.PutString(status.message());
  return w.Take();
}

Status DecodeError(const std::string& payload) {
  WireReader r(payload);
  auto code = r.GetU32();
  auto msg = r.GetString();
  if (!code.ok() || !msg.ok()) {
    return Status::IoError("malformed error frame");
  }
  if (*code == 0 || *code > static_cast<uint32_t>(StatusCode::kUnknownError)) {
    return Status(StatusCode::kUnknownError, *msg);
  }
  return Status(static_cast<StatusCode>(*code), *msg);
}

}  // namespace rma::server
