#include "serve/trace_catalog.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "colstore/columnar_reader.hpp"
#include "errors/error.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/obs.hpp"

namespace ivt::serve {

TraceEntry::~TraceEntry() {
  if (fd >= 0) ::close(fd);
}

TraceCatalog::TraceCatalog(signaldb::Catalog db) : db_(std::move(db)) {}

void TraceCatalog::add_trace(const std::string& name,
                             const std::string& path) {
  if (traces_.contains(name)) {
    IVT_THROW(errors::Category::Spec,
              "serve: duplicate trace name '" + name + "'");
  }
  auto entry = std::make_unique<TraceEntry>();
  // The reader holds the whole file only for this statement; the image is
  // freed once the footer is copied out, and chunk bytes are re-read on
  // demand (or served from the chunk cache).
  entry->footer = colstore::ColumnarReader(path).footer();
  entry->name = name;
  entry->path = path;
  entry->fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (entry->fd < 0) {
    IVT_THROW(errors::Category::Io, "serve: cannot open trace '" + path +
                                        "': " + std::strerror(errno));
  }
  traces_.emplace(name, std::move(entry));
}

const TraceEntry* TraceCatalog::find(const std::string& name) const {
  const auto it = traces_.find(name);
  return it == traces_.end() ? nullptr : it->second.get();
}

const TraceEntry& TraceCatalog::require(const std::string& name) const {
  const TraceEntry* entry = find(name);
  if (entry == nullptr) {
    IVT_THROW(errors::Category::Spec,
              "serve: unknown trace '" + name + "' (registered: " +
                  std::to_string(traces_.size()) + " traces)");
  }
  return *entry;
}

std::vector<std::string> TraceCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(traces_.size());
  for (const auto& [name, entry] : traces_) out.push_back(name);
  return out;
}

std::shared_ptr<const std::string> TraceCatalog::chunk_bytes(
    const TraceEntry& entry, std::size_t chunk_index, ChunkCache& cache,
    bool* was_hit) const {
  const ChunkKey key{entry.name, chunk_index};
  if (std::shared_ptr<const std::string> hit = cache.get(key)) {
    if (was_hit != nullptr) *was_hit = true;
    return hit;
  }
  if (was_hit != nullptr) *was_hit = false;
  // Miss: read the compressed extent from disk. The fault site models a
  // backing-store read failure (stale NFS handle, truncated file, I/O
  // error) — it must surface as a typed error response, never tear down
  // the connection.
  FAULT_POINT("serve.cache");
  const colstore::ChunkInfo& info = entry.footer.chunks.at(chunk_index);
  auto bytes = std::make_shared<std::string>();
  bytes->resize(info.encoded_bytes);
  std::size_t done = 0;
  while (done < info.encoded_bytes) {
    const ssize_t got =
        ::pread(entry.fd, bytes->data() + done, info.encoded_bytes - done,
                static_cast<off_t>(info.offset + done));
    if (got == 0) {
      IVT_THROW(errors::Category::Decode,
                "serve: trace '" + entry.name + "' truncated: chunk " +
                    std::to_string(chunk_index) + " extent ends early");
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      IVT_THROW(errors::Category::Io,
                "serve: pread failed on trace '" + entry.name +
                    "': " + std::strerror(errno));
    }
    done += static_cast<std::size_t>(got);
  }
  OBS_COUNT("serve.chunk_bytes_loaded", info.encoded_bytes);
  cache.put(key, bytes, bytes->size());
  return bytes;
}

}  // namespace ivt::serve
