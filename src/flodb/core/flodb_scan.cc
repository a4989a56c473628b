// FloDB scan protocol (Algorithm 3, §4.4) and the fetch behind its ScanIterator.
//
// Master scan: pause draining and Memtable writers, swap in a fresh
// Membuffer, fully drain the old one (writers help), take a scan sequence
// number, release everyone, publish the number for piggybackers, then
// iterate Memtable + immutable Memtable + disk validating per-entry
// sequence numbers. An entry newer than the scan number means an in-place
// update raced the scan: restart; after kScanRestartLimit restarts fall
// back to a pass that briefly blocks Memtable writers (liveness).
//
// Piggybacking scan: a scan that begins while another scan runs reuses the
// published sequence number (no re-drain); chains are bounded by
// kPiggybackChainLimit. Every other scan is a master: that is the whole
// election rule. Piggyback restarts take a fresh sequence number without
// re-draining. Master scans are linearizable w.r.t. updates
// (linearization point: the Membuffer pointer swap); piggybacked scans
// are serializable.
//
// Every range read is a chunked iterator (NewScanIterator; Scan is one
// chunk of it). The election happens once at open, and the scan holds
// its master/piggyback slot through its first chunk only. Each fetch
// collects up to scan_chunk_size live entries resuming just past the
// last emitted key; a seq violation restarts only the current chunk —
// with a full master re-drain in the first chunk, a fresh seq afterwards.
// Serializable per chunk, never moving backwards in time (DESIGN.md §4).

#include "flodb/core/flodb.h"

#include "flodb/core/memtable_iterator.h"
#include "flodb/disk/merging_iterator.h"

namespace flodb {

bool FloDB::ScanPass(const Slice& start, const Slice& high_key, size_t limit, uint64_t scan_seq,
                     bool validate, bool exclusive_start, std::vector<ScanEntry>* out,
                     Status* error) {
  out->clear();
  *error = Status::OK();
  // The RCU section pins both Memtables for the whole pass; the disk
  // iterator pins its own Version internally.
  RcuReadGuard guard(rcu_);
  std::vector<std::unique_ptr<Iterator>> children;
  MemTable* mtb = mtb_.load(std::memory_order_seq_cst);
  children.push_back(NewMemTableIterator(mtb));
  MemTable* imm = imm_mtb_.load(std::memory_order_seq_cst);
  if (imm != nullptr) {
    children.push_back(NewMemTableIterator(imm));
  }
  if (disk_ != nullptr) {
    children.push_back(disk_->NewIterator());
  }
  std::unique_ptr<Iterator> merged = NewMergingIterator(std::move(children));

  std::string last_key;
  bool has_last = false;
  if (exclusive_start) {
    // Seeding the dedup state with the resume key skips every remaining
    // version of it.
    last_key.assign(start.data(), start.size());
    has_last = true;
  }
  for (merged->Seek(start); merged->Valid(); merged->Next()) {
    if (!high_key.empty() && merged->key().compare(high_key) >= 0) {
      break;
    }
    if (validate && merged->seq() > scan_seq) {
      // A value in our range was written after the scan began; the old
      // value is gone (in-place update), so the snapshot is broken.
      return false;
    }
    if (has_last && merged->key() == Slice(last_key)) {
      continue;  // older version of an already-emitted user key
    }
    last_key.assign(merged->key().data(), merged->key().size());
    has_last = true;
    if (merged->type() == ValueType::kTombstone) {
      continue;
    }
    out->push_back(ScanEntry{last_key, merged->value().ToString(), merged->seq()});
    if (limit != 0 && out->size() >= limit) {
      break;
    }
  }
  *error = merged->status();
  return true;
}

Status FloDB::FallbackPass(const Slice& start, const Slice& high_key, size_t limit,
                           bool exclusive_start, std::vector<ScanEntry>* out) {
  fallback_scans_.fetch_add(1, std::memory_order_relaxed);
  MutexLock master(master_mu_);
  pause_writers_.store(true, std::memory_order_seq_cst);
  pause_draining_.store(true, std::memory_order_seq_cst);
  // In-flight Memtable writes complete; afterwards the Memtable is frozen
  // for the duration (writers park in the Membuffer or spin).
  rcu_.Synchronize();
  const uint64_t seq = FreshScanSeq();
  Status error;
  ScanPass(start, high_key, limit, seq, /*validate=*/false, exclusive_start, out, &error);
  pause_writers_.store(false, std::memory_order_seq_cst);
  pause_draining_.store(false, std::memory_order_seq_cst);
  return error;
}

void FloDB::EstablishMasterSeq(uint64_t* seq) {
  {
    MutexLock master(master_mu_);
    SwapAndDrainMembufferLocked(seq);
    {
      MutexLock lock(scan_mu_);
      published_seq_ = *seq;
      published_valid_ = true;
      chain_len_ = 0;
    }
    scan_cv_.SignalAll();
  }
}

FloDB::ScanTicket FloDB::BeginScan() {
  ScanTicket ticket;
  {
    MutexLock lock(scan_mu_);
    while (true) {
      // Piggyback: a published seq means a scan is running (EndScan
      // withdraws it when the last one ends), and its chain has budget.
      if (published_valid_ && chain_len_ < kPiggybackChainLimit) {
        ticket.seq = published_seq_;
        ++chain_len_;
        ++running_scans_;
        piggyback_scans_.fetch_add(1, std::memory_order_relaxed);
        return ticket;
      }
      if (!master_busy_) {
        master_busy_ = true;
        ticket.is_master = true;
        ++running_scans_;
        master_scans_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      scan_cv_.Wait(scan_mu_);
    }
  }
  EstablishMasterSeq(&ticket.seq);
  return ticket;
}

void FloDB::EndScan(const ScanTicket& ticket) {
  {
    MutexLock lock(scan_mu_);
    --running_scans_;
    if (ticket.is_master) {
      master_busy_ = false;
    }
    if (running_scans_ == 0) {
      // A sequence number never outlives its chain: the next scan is a
      // master.
      published_valid_ = false;
    }
  }
  scan_cv_.SignalAll();
}

Status FloDB::FetchChunk(ScanTicket* ticket, const Slice& start, bool exclusive,
                        const Slice& high_key, size_t limit, std::vector<ScanEntry>* out) {
  Status pass_error;
  for (int restarts = 0;;) {
    if (ScanPass(start, high_key, limit, ticket->seq, /*validate=*/true, exclusive, out,
                 &pass_error)) {
      // A disk read failure cuts the stream here with the error;
      // restarting cannot fix an unreadable table.
      return pass_error;
    }
    scan_restarts_.fetch_add(1, std::memory_order_relaxed);
    if (++restarts >= kScanRestartLimit) {
      return FallbackPass(start, high_key, limit, exclusive, out);
    }
    if (ticket->is_master && !exclusive) {
      // First chunk, slot held, nothing emitted: a full master restart
      // (re-drain + fresh seq) re-establishes linearizability.
      EstablishMasterSeq(&ticket->seq);
    } else {
      // Piggyback restart: fresh seq, no re-drain (§4.4). The snapshot
      // advances for the remaining range only.
      ticket->seq = FreshScanSeq();
    }
  }
}

std::unique_ptr<ScanIterator> FloDB::NewScanIterator(const ReadOptions& options,
                                                     const Slice& low_key,
                                                     const Slice& high_key) {
  if (options.fill_stats) {
    scans_.fetch_add(1, std::memory_order_relaxed);
  }
  ScanTicket ticket = BeginScan();
  auto iter = std::make_unique<ScanIterator>(
      low_key, options.scan_chunk_size,
      [this, ticket, high = high_key.ToString()](const Slice& start, bool exclusive, size_t limit,
                                                 std::vector<ScanEntry>* out) mutable {
        return FetchChunk(&ticket, start, exclusive, Slice(high), limit, out);
      });
  // The first chunk was fetched inside the constructor, under the slot:
  // concurrent Scans (one chunk each) piggyback on each other, while a
  // long-lived cursor never blocks other scans.
  EndScan(ticket);
  return iter;
}

}  // namespace flodb
