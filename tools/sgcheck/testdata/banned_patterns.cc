// sgcheck fixture: absorbed lint.sh token rules — spinlock internals,
// shaddr privates, raw pregions() access, unregistered inject points.
// Run with --inject-registry banned_patterns.registry.

namespace fix {

class BadCitizen {
 public:
  void PokeLockWord() {
    flag_.store(1);     // VIOLATION: spin-internals
    flag_.exchange(1);  // VIOLATION: spin-internals
    flag_.load();       // NEGATIVE: reading the word is not a poke
  }

  void TouchShaddr(ShaddrBlock* sh) {
    sh->group_fds_.Slot(0) = {};  // VIOLATION: ofile-private
  }

  int CountRegions(AddressSpace& as) {
    return static_cast<int>(as.pregions().size());  // VIOLATION: pregions-private
  }

  int CountOther(AddressSpace& as) {
    return as.pregion_count();  // NEGATIVE: different accessor
  }

  void Fire() {
    SG_INJECT_POINT("fixture.registered");            // NEGATIVE: in registry
    SG_INJECT_POINT("fixture.unregistered");          // VIOLATION
    SG_INJECT_FAULT("fixture.also_missing", return);  // VIOLATION
  }

 private:
  std::atomic<int> flag_;
};

}  // namespace fix
