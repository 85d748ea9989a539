// Static persistence-contract annotations, discharged by efac-check.
//
// The paper's correctness argument is an ORDERING contract: an ack (or
// locate reply) may claim durability only after the object's persist +
// fence completed — and the read side must revalidate CRC/metadata before
// trusting racily-read bytes. PR 4's dynamic sanitizer checks the
// schedules a workload happens to execute; the markers below make the same
// obligations visible to `scripts/efac_check.py`, which proves them on ALL
// control-flow paths (fault-injected retry tails, hedge/abandon paths,
// branches no workload reaches). docs/STATIC_ANALYSIS.md has the taxonomy
// and checker rules.
//
// Every marker expands to a call of an empty constexpr inline function:
// zero code at any optimization level, no behavioural difference, and the
// determinism suite stays bit-identical. The checker never executes
// anything — it recognises the macro names in source.
//
// Statement markers (placed on the path they describe):
//
//   EFAC_PERSISTS(tag)   The bytes this path's eventual claim covers are
//                        persisted HERE: flush issued and the fence (or an
//                        ordering equivalent, e.g. an awaited RDMA COMMIT
//                        completion) has completed on this path.
//   EFAC_NO_CLAIM(tag)   This path's eventual reply/return carries NO
//                        durability claim (error status, torn object,
//                        timeout). Discharges rule EFAC001/EFAC002 for
//                        paths that answer without promising durability.
//   EFAC_ACK_SITE(tag)   A durability-claiming ack/reply is built or sent
//                        here. efac-check requires persist evidence
//                        (EFAC_PERSISTS, an EFAC_FN_ESTABLISHES_DURABLE
//                        call, or a positive EFAC_FN_OBSERVES_DURABLE
//                        test) on EVERY path from function entry [EFAC001].
//   EFAC_WIRE_TAIL(tag)  An OPTIONAL wire-format tail is encoded/decoded
//                        here. Must be feature-gated (inside a conditional
//                        or exhaustion-guarded) and append-only: no fixed-
//                        layout field may be written after it [EFAC003].
//
// Function markers (first statement of the definition's body):
//
//   EFAC_FN_ESTABLISHES_DURABLE()  Every return path of this function
//                        either carries persist evidence or is explicitly
//                        EFAC_NO_CLAIM — so a call to it IS persist
//                        evidence at the call site. efac-check verifies
//                        the promise against the body [EFAC002]. When the
//                        call appears as an `if` condition, the evidence
//                        applies to the branch taken on success (the
//                        then-branch, or the else-branch under `!`).
//   EFAC_FN_REQUIRES_DURABLE()     Durability evidence must already hold
//                        wherever this function is called; every call
//                        site is checked like an ack site [EFAC001].
//   EFAC_FN_OBSERVES_DURABLE()     This predicate returns true iff the
//                        object is durable (the durability flag's
//                        promise). A positive test of it in an `if`
//                        condition is persist evidence for that branch.
//
// A finding can be waived with `// efac-waive: EFAC00N <reason>` on the
// statement's line or the line above; the reason is mandatory.
#pragma once

namespace efac::contracts {

/// Annotation sink: all contract markers compile down to a call of this
/// empty function, which every compiler folds away entirely.
inline constexpr void annotation_sink(const char* /*tag*/) noexcept {}

}  // namespace efac::contracts

#define EFAC_PERSISTS(tag) ::efac::contracts::annotation_sink("persists:" tag)
#define EFAC_NO_CLAIM(tag) ::efac::contracts::annotation_sink("no_claim:" tag)
#define EFAC_ACK_SITE(tag) ::efac::contracts::annotation_sink("ack_site:" tag)
#define EFAC_WIRE_TAIL(tag) \
  ::efac::contracts::annotation_sink("wire_tail:" tag)

#define EFAC_FN_ESTABLISHES_DURABLE() \
  ::efac::contracts::annotation_sink("fn:establishes_durable")
#define EFAC_FN_REQUIRES_DURABLE() \
  ::efac::contracts::annotation_sink("fn:requires_durable")
#define EFAC_FN_OBSERVES_DURABLE() \
  ::efac::contracts::annotation_sink("fn:observes_durable")
