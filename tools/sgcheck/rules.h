// sgcheck rules — the protocol checks, run over the parsed Program.
//
// Rule IDs (stable; these are what sgcheck:allow() names):
//   sleep-in-atomic   R1: call-graph reachability from a no-sleep context
//                     (spinlock held, seqcount write/read section, epoch
//                     pin) to a blocking primitive.
//   guard-escape      R2: a LayoutSnapshot*/Pregion* obtained under an
//                     EpochGuard stored or returned past the guard scope.
//   seqcount-bracket  R3: pregion-list / member-TLB mutations outside a
//                     layout-seqcount write section.
//   guarded-fields    R4: fields of protocol structs (>= 1 SG_GUARDED_BY
//                     member) that are neither annotated, atomic, const,
//                     a reference, a capability, nor internally synchronized.
//   spin-internals    Spinlock implementation pokes (flag_.store/exchange)
//                     outside src/sync/.
//   ofile-private     ShaddrBlock's group_fds_ (s_ofile) touched outside shaddr.
//   pregions-private  .pregions() accessor used outside src/vm/.
//   inject-registry   SG_INJECT_POINT/FAULT name missing from the registry.
//   suppression       malformed sgcheck:allow (no reason / unknown rule).
#ifndef TOOLS_SGCHECK_RULES_H_
#define TOOLS_SGCHECK_RULES_H_

#include "parser.h"

namespace sgcheck {

extern const std::set<std::string> kKnownRules;

struct Options {
  std::string repo;             // repo root; empty => explicit-file mode
  std::string inject_registry;  // registry path; empty disables the rule
};

// Runs every rule, applies sgcheck:allow suppressions, and appends the
// surviving diagnostics (plus any suppression-syntax diagnostics already in
// `out`) sorted by (file, line, rule).
void RunRules(Program& prog, const Options& opt, std::vector<Diag>& out);

}  // namespace sgcheck

#endif  // TOOLS_SGCHECK_RULES_H_
