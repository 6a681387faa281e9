// Structure-of-arrays shard blocks: per-shard component slabs for the
// materialized fleet.
//
// Each shard owns one ShardBlock with a slab per component *type*: all
// of a shard's provers sit contiguously in chunked blocks, all its
// verifiers in another, and so on. Materializing a device costs no
// allocator round-trip per component (one chunk serves a whole block of
// devices), and a shard's hot session state stays shard-local. Slabs
// grow in fixed chunks and never move a constructed element, so
// component addresses stay stable while the shard materializes devices
// mid-drain.
//
// Construction order (prover, verifier, channel, session — per device)
// and destruction order (sessions, channels, verifiers, provers — slab
// by slab, each in reverse construction order) bracket the reference
// lifetimes: a session only ever outlives none of the components it
// references.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "ratt/sim/session.hpp"

namespace ratt::sim {

/// One component slab: chunked uninitialized storage for T with
/// placement construction. Chunks never move, so a returned pointer is
/// stable for the slab's lifetime. Elements are destroyed in reverse
/// construction order when the slab dies.
template <class T>
class ComponentSlab {
 public:
  /// Devices per chunk. 64 keeps a chunk of the fattest component
  /// (AttestationSession, ~384 B) inside a handful of pages while
  /// amortizing the chunk allocation across a whole block of devices.
  static constexpr std::size_t kChunk = 64;

  ComponentSlab() = default;
  ComponentSlab(const ComponentSlab&) = delete;
  ComponentSlab& operator=(const ComponentSlab&) = delete;

  ~ComponentSlab() {
    for (std::size_t i = count_; i > 0; --i) ptr(i - 1)->~T();
  }

  template <class... Args>
  T* emplace(Args&&... args) {
    if (count_ == chunks_.size() * kChunk) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
    T* slot = ptr(count_);
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++count_;
    return slot;
  }

  std::size_t size() const { return count_; }

  /// Heap bytes the slab's chunks occupy (the component side of the
  /// resident-bytes report).
  std::size_t slab_bytes() const { return chunks_.size() * sizeof(Chunk); }

 private:
  struct Chunk {
    alignas(T) unsigned char bytes[sizeof(T) * kChunk];
  };

  T* ptr(std::size_t i) {
    return std::launder(reinterpret_cast<T*>(
               chunks_[i / kChunk]->bytes) + i % kChunk);
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t count_ = 0;
};

/// The SoA arena proper: one slab per component type. Slab declaration
/// order is the reference order — sessions_ is declared last so it is
/// destroyed first, before the channels/verifiers/provers it points at.
class ShardBlock {
 public:
  template <class... Args>
  attest::ProverDevice* make_prover(Args&&... args) {
    return provers_.emplace(std::forward<Args>(args)...);
  }
  template <class... Args>
  attest::Verifier* make_verifier(Args&&... args) {
    return verifiers_.emplace(std::forward<Args>(args)...);
  }
  template <class... Args>
  Channel* make_channel(Args&&... args) {
    return channels_.emplace(std::forward<Args>(args)...);
  }
  template <class... Args>
  AttestationSession* make_session(Args&&... args) {
    return sessions_.emplace(std::forward<Args>(args)...);
  }

  std::size_t devices() const { return sessions_.size(); }

  /// Chunk bytes across all four slabs. Component-internal heap (bus
  /// pages, MAC state) is counted by the components themselves.
  std::size_t slab_bytes() const {
    return provers_.slab_bytes() + verifiers_.slab_bytes() +
           channels_.slab_bytes() + sessions_.slab_bytes();
  }

 private:
  ComponentSlab<attest::ProverDevice> provers_;
  ComponentSlab<attest::Verifier> verifiers_;
  ComponentSlab<Channel> channels_;
  ComponentSlab<AttestationSession> sessions_;
};

}  // namespace ratt::sim
