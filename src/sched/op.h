// The operation taxonomy every pipeline schedule in this library is
// expressed in, and the pipeline problem instance they are scheduled for.
//
// A compute op is identified by (kind, micro, slice, chunk):
//   micro ∈ [0, n)  — micro-batch index
//   slice ∈ [0, s)  — slice index within the micro-batch's sample (§2.1,
//                     TeraPipe-style sequence slicing; s=1 ⇒ classic PP)
//   chunk ∈ [0, v·p) — global model chunk (§2.1, VPP; v=1 ⇒ one chunk per
//                     stage). The chunk determines the owning stage.
// Weight-gradient work may additionally be decomposed into individual
// GEMMs (§5), identified by a `gemm` sub-index.
#ifndef MEPIPE_SCHED_OP_H_
#define MEPIPE_SCHED_OP_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace mepipe::sched {

enum class OpKind : std::uint8_t {
  kForward,         // F — forward pass of one slice through one chunk
  kBackward,        // B — activation-gradient backward (or full backward
                    //     when the schedule does not split B/W)
  kWeightGrad,      // W — whole weight-gradient computation of a slice/chunk
  kWeightGradGemm,  // Wg — one GEMM of a W computation (fine-grained, §5)
  kDpSync,          // AR — data-parallel gradient all-reduce of one
                    //      bucket (all gradients of one chunk). Runs on a
                    //      comm stream, not the compute stream; becomes
                    //      ready when the last gradient op of its chunk
                    //      completes. Identified by `chunk` alone
                    //      (micro/slice/gemm are 0/0/-1).
};

const char* ToString(OpKind kind);

struct OpId {
  OpKind kind = OpKind::kForward;
  int micro = 0;
  int slice = 0;
  int chunk = 0;
  int gemm = -1;  // only meaningful for kWeightGradGemm
  // Owning training job, for multi-job cluster timelines (core/cluster).
  // 0 = untagged single-job run — the default everywhere a schedule is
  // generated; sched::TagJob stamps a whole schedule after the fact and
  // every dependency/engine-synthesized op inherits the consumer's tag,
  // so one interleaved timeline can attribute each span to its job (the
  // multi-session `session_id` idiom).
  int job = 0;

  friend auto operator<=>(const OpId&, const OpId&) = default;
};

std::string ToString(const OpId& op);

struct OpIdHash {
  std::size_t operator()(const OpId& op) const;
};

// How global chunks map onto pipeline stages.
enum class ChunkPlacement : std::uint8_t {
  kRoundRobin,  // stage(g) = g mod p  (Megatron interleaved VPP)
  kVShape,      // v=2 zig-zag: 0,1,…,p-1,p-1,…,1,0  (ZBV / Hanayo wave)
};

// A pipeline scheduling problem instance (Table 1 notations).
struct PipelineProblem {
  int stages = 1;          // p
  int virtual_chunks = 1;  // v — chunks per stage
  int slices = 1;          // s — sequence pipeline size
  int micros = 1;          // n — number of micro-batches
  bool split_backward = false;  // B and W are separate ops (ZB / MEPipe)
  ChunkPlacement placement = ChunkPlacement::kRoundRobin;

  int num_chunks() const { return virtual_chunks * stages; }

  // Owning stage of a global chunk. Forced inline: generation,
  // validation and the engine call it per dependency edge, and the
  // engine's event loop is too large for the inliner's own budget.
  // Out-of-range chunks throw CheckError.
  [[gnu::always_inline]] int stage_of_chunk(int chunk) const {
    if (chunk < 0 || chunk >= num_chunks()) [[unlikely]] {
      ChunkOutOfRange(chunk);
    }
    const int offset = chunk % stages;
    if (placement == ChunkPlacement::kVShape && (chunk / stages) % 2 == 1) {
      return stages - 1 - offset;  // zig-zag: 0,1,…,p-1, then p-1,…,1,0
    }
    return offset;
  }

  // Compute ops per stage in a full iteration (excluding per-GEMM splits):
  // n·s·v forwards, n·s·v backwards (+ n·s·v weight grads when split).
  std::int64_t ops_per_stage() const;

  void Validate() const;  // throws CheckError on malformed instances

  friend bool operator==(const PipelineProblem&, const PipelineProblem&) = default;

 private:
  [[noreturn]] void ChunkOutOfRange(int chunk) const;
};

// The one dense layout of a problem's F/B/W ops: three kind planes
// (F, B, W) of micros × slices × chunks, so per-op state lives in a flat
// vector indexed by slot instead of a hash map. A kWeightGradGemm shares
// its W's slot (the GEMMs of one W have the same dependencies); DP
// buckets have no slot. The caller guarantees micro, slice and chunk are
// in range.
class OpSlots {
 public:
  explicit OpSlots(const PipelineProblem& problem)
      : micros_(static_cast<std::size_t>(problem.micros)),
        slices_(static_cast<std::size_t>(problem.slices)),
        chunks_(static_cast<std::size_t>(problem.num_chunks())) {}

  std::size_t count() const { return 3 * micros_ * slices_ * chunks_; }

  std::size_t operator()(const OpId& op) const {
    const std::size_t kind = op.kind == OpKind::kForward    ? 0
                             : op.kind == OpKind::kBackward ? 1
                                                            : 2;
    return ((kind * micros_ + static_cast<std::size_t>(op.micro)) * slices_ +
            static_cast<std::size_t>(op.slice)) *
               chunks_ +
           static_cast<std::size_t>(op.chunk);
  }

 private:
  std::size_t micros_;
  std::size_t slices_;
  std::size_t chunks_;
};

}  // namespace mepipe::sched

#endif  // MEPIPE_SCHED_OP_H_
