#include "rosa/spill.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <utility>

#include "rosa/fingerprint.h"
#include "support/diagnostics.h"
#include "support/error.h"
#include "support/faultpoint.h"
#include "support/str.h"

namespace pa::rosa {

namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

/// Frame header: "s <16-hex digest> <decimal body length>". Rejects
/// anything else, including lengths beyond 2^30 (no state serializes that
/// large; a bigger claim means the file is damaged).
bool parse_frame_header(std::string_view line, std::uint64_t* digest,
                        std::size_t* len) {
  if (!line.starts_with("s ") || line.size() < 20) return false;
  std::uint64_t d = 0;
  for (std::size_t k = 0; k < 16; ++k) {
    const char c = line[2 + k];
    int v = 0;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else return false;
    d = (d << 4) | static_cast<std::uint64_t>(v);
  }
  if (line[18] != ' ') return false;
  std::uint64_t n = 0;
  for (std::size_t k = 19; k < line.size(); ++k) {
    const char c = line[k];
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
    if (n > (std::uint64_t{1} << 30)) return false;
  }
  *digest = d;
  *len = static_cast<std::size_t>(n);
  return true;
}

/// Per-process sequence distinguishing concurrent spill stores (the query
/// fan-out can open one per worker); getpid() distinguishes processes that
/// share a --spill-dir. Deliberately no wall clock or RNG: a crashed run's
/// leftover directory under the same name is recognized and replaced.
std::atomic<std::uint64_t> g_spill_seq{0};

}  // namespace

const std::string& spill_header_line() {
  static const std::string header =
      str::cat("privanalyzer-rosa-spill v1 model=", kRosaModelVersion);
  return header;
}

std::optional<State> parse_canonical(
    std::string_view text, std::shared_ptr<const WorldSkeleton> world) {
  std::size_t i = 0;
  auto peek = [&]() -> char { return i < text.size() ? text[i] : '\0'; };
  // One canonical number: optional '-', digits, mandatory trailing ','.
  // Parsed through a uint64 magnitude so the full message mask (printed as
  // a negative long long when bit 63 is set) round-trips exactly.
  auto num_ll = [&](long long* out) -> bool {
    bool neg = false;
    if (peek() == '-') {
      neg = true;
      ++i;
    }
    std::uint64_t mag = 0;
    bool any = false;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      const auto d = static_cast<std::uint64_t>(text[i] - '0');
      if (mag > (~std::uint64_t{0} - d) / 10) return false;
      mag = mag * 10 + d;
      ++i;
      any = true;
    }
    if (!any || peek() != ',') return false;
    ++i;
    if (neg) {
      if (mag > std::uint64_t{1} << 63) return false;
      *out = static_cast<long long>(~mag + 1);
    } else {
      if (mag > static_cast<std::uint64_t>(
                    std::numeric_limits<long long>::max()))
        return false;
      *out = static_cast<long long>(mag);
    }
    return true;
  };
  auto num_int = [&](int* out) -> bool {
    long long v = 0;
    if (!num_ll(&v)) return false;
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
      return false;
    *out = static_cast<int>(v);
    return true;
  };
  auto at_number = [&]() -> bool {
    const char c = peek();
    return c == '-' || (c >= '0' && c <= '9');
  };

  if (peek() != 'M') return std::nullopt;
  ++i;
  long long msgs = 0;
  if (!num_ll(&msgs)) return std::nullopt;

  State st;
  while (i < text.size()) {
    const char tag = text[i++];
    if (tag == 'P') {
      ProcObj p;
      if (!num_int(&p.id) || !num_int(&p.uid.real) ||
          !num_int(&p.uid.effective) || !num_int(&p.uid.saved) ||
          !num_int(&p.gid.real) || !num_int(&p.gid.effective) ||
          !num_int(&p.gid.saved))
        return std::nullopt;
      const char run = peek();
      if (run != 'r' && run != 'z') return std::nullopt;
      ++i;
      p.running = run == 'r';
      while (at_number()) {
        int g = 0;
        if (!num_int(&g)) return std::nullopt;
        p.supplementary.push_back(g);
      }
      if (peek() != 'R') return std::nullopt;
      ++i;
      while (at_number()) {
        int f = 0;
        if (!num_int(&f)) return std::nullopt;
        p.rdfset.insert(f);
      }
      if (peek() != 'W') return std::nullopt;
      ++i;
      while (at_number()) {
        int f = 0;
        if (!num_int(&f)) return std::nullopt;
        p.wrfset.insert(f);
      }
      st.procs.push_back(std::move(p));
    } else if (tag == 'F') {
      FileObj f;
      int mode = 0;
      if (!num_int(&f.id) || !num_int(&f.meta.owner) ||
          !num_int(&f.meta.group) || !num_int(&mode))
        return std::nullopt;
      if (mode < 0 || mode > 07777) return std::nullopt;
      f.meta.mode = os::Mode(static_cast<std::uint16_t>(mode));
      st.files.push_back(f);
    } else if (tag == 'D') {
      DirObj d;
      int mode = 0;
      if (!num_int(&d.id) || !num_int(&d.meta.owner) ||
          !num_int(&d.meta.group) || !num_int(&mode) || !num_int(&d.inode))
        return std::nullopt;
      if (mode < 0 || mode > 07777) return std::nullopt;
      d.meta.mode = os::Mode(static_cast<std::uint16_t>(mode));
      st.dirs.push_back(d);
    } else if (tag == 'S') {
      SockObj s;
      if (!num_int(&s.id) || !num_int(&s.owner_proc) || !num_int(&s.port))
        return std::nullopt;
      st.socks.push_back(s);
    } else {
      return std::nullopt;
    }
  }
  st.set_world(std::move(world));
  st.set_msgs_remaining(static_cast<std::uint64_t>(msgs));
  return st;
}

SpillStore::SpillStore(const std::string& root) {
  PA_FAULTPOINT("rosa.spill_io");
  dir_ = str::cat(root, "/rosa-spill-",
                  static_cast<unsigned long long>(::getpid()), "-",
                  g_spill_seq.fetch_add(1, std::memory_order_relaxed));
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);  // a crashed run's leftover
  ec.clear();
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    support::fail_stage(
        support::Stage::Rosa, support::DiagCode::FileNotFound, "",
        str::cat("cannot create spill directory ", dir_, ": ", ec.message()));
}

SpillStore::~SpillStore() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);  // best effort on every exit path
}

std::string SpillStore::chunk_path(std::uint32_t chunk) const {
  return str::cat(dir_, "/chunk-", chunk, ".spill");
}

SpillStore::Ref SpillStore::append(const State& st, std::uint64_t digest) {
  const std::string canon = st.canonical();
  const Ref ref{chunks_written_,
                spill_header_line().size() + 1 + buffer_.size()};
  const std::size_t before = buffer_.size();
  buffer_ += "s ";
  buffer_ += hex16(digest);
  buffer_ += ' ';
  buffer_ += std::to_string(canon.size());
  buffer_ += '\n';
  buffer_ += canon;
  buffer_ += '\n';
  ++spilled_states_;
  spill_bytes_ += buffer_.size() - before;
  if (buffer_.size() >= kFlushThreshold) flush();
  return ref;
}

void SpillStore::flush() {
  if (buffer_.empty()) return;
  PA_FAULTPOINT("rosa.spill_io");
  const std::string path = chunk_path(chunks_written_);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out) {
      out << spill_header_line() << '\n' << buffer_ << "end\n";
      out.flush();
    }
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      support::fail_stage(support::Stage::Rosa,
                          support::DiagCode::FileNotFound, "",
                          str::cat("cannot write spill chunk ", tmp));
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    support::fail_stage(
        support::Stage::Rosa, support::DiagCode::FileNotFound, "",
        str::cat("cannot publish spill chunk ", path));
  }
  ++chunks_written_;
  buffer_.clear();
}

State SpillReader::load(SpillStore::Ref ref,
                        const std::shared_ptr<const WorldSkeleton>& world) {
  const std::string path = store_->chunk_path(ref.chunk);
  auto corrupt = [&path](std::string_view why) {
    support::fail_stage(support::Stage::Rosa,
                        support::DiagCode::BadFieldValue, "",
                        str::cat("spill chunk ", path, ": ", why));
  };
  std::uint64_t digest = 0;
  std::size_t len = 0;
  std::string canon;
  if (ref.chunk == store_->chunks_written()) {
    // The open chunk: parse the frame in place from the write buffer, whose
    // offsets are shifted by the header line flush() will prepend.
    const std::string_view buf = store_->unpublished();
    const std::size_t header = spill_header_line().size() + 1;
    if (ref.offset < header || ref.offset - header >= buf.size())
      corrupt("frame offset out of range");
    const std::string_view frame = buf.substr(ref.offset - header);
    const std::size_t eol = frame.find('\n');
    if (eol == std::string_view::npos) corrupt("truncated frame header");
    if (!parse_frame_header(frame.substr(0, eol), &digest, &len))
      corrupt("malformed frame header");
    if (frame.size() - eol - 1 <= len || frame[eol + 1 + len] != '\n')
      corrupt("truncated frame body");
    canon = frame.substr(eol + 1, len);
  } else {
    if (open_chunk_ != static_cast<std::int64_t>(ref.chunk)) {
      open_chunk_ = -1;
      in_.close();
      in_.clear();
      PA_FAULTPOINT("rosa.spill_io");
      in_.open(path, std::ios::binary);
      if (!in_)
        support::fail_stage(support::Stage::Rosa,
                            support::DiagCode::FileNotFound, "",
                            str::cat("cannot open spill chunk ", path));
      std::string header;
      if (!std::getline(in_, header) || header != spill_header_line())
        corrupt("incompatible header (stale version or not a spill chunk)");
      open_chunk_ = static_cast<std::int64_t>(ref.chunk);
    }
    in_.clear();
    if (!in_.seekg(static_cast<std::streamoff>(ref.offset)))
      corrupt("frame offset out of range");
    std::string line;
    if (!std::getline(in_, line)) corrupt("truncated frame header");
    if (!parse_frame_header(line, &digest, &len))
      corrupt("malformed frame header");
    canon.resize(len);
    in_.read(canon.data(), static_cast<std::streamsize>(len));
    if (static_cast<std::size_t>(in_.gcount()) != len || in_.get() != '\n')
      corrupt("truncated frame body");
  }
  std::optional<State> st = parse_canonical(canon, world);
  if (!st) corrupt("unparseable canonical state");
  if (st->full_hash() != digest) corrupt("state digest mismatch");
  return std::move(*st);
}

}  // namespace pa::rosa
