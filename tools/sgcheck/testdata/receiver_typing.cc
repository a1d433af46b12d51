// sgcheck fixture: R1 resolves a member call through its typed receiver, so
// a lock-free method is not tarred by an unrelated blocking function of the
// same name — positives and near-miss negatives.
// Not compiled; parsed only by sgcheck (types are stand-ins for the repo's).

namespace fix {

class Semaphore {
 public:
  void P();
  void V();
};

// Lock-free: one atomic increment.
class Table {
 public:
  Obj* Dup(Obj* o) {
    o->refs.fetch_add(1);
    return o;
  }
};

// Blocking: sleeps before duplicating a descriptor.
class Kern {
 public:
  int Dup(int fd) {
    sem_.P();
    return fd;
  }

 private:
  Semaphore sem_;
};

class Vfs {
 public:
  Table& files() { return files_; }

 private:
  Table files_;
};

class Base {
 public:
  virtual void Drop() {}
};

class SleepyDrop : public Base {
 public:
  void Drop() override { sem_.P(); }

 private:
  Semaphore sem_;
};

class Block {
 public:
  // NEGATIVE: the accessor chain types the receiver as Table.
  void ThroughAccessor(Obj* o) SG_REQUIRES(lock_) { vfs_.files().Dup(o); }

  // NEGATIVE: a field receiver typed Table.
  void ThroughField(Obj* o) {
    SpinGuard g(lock_);
    table_.Dup(o);
  }

  // VIOLATION: the receiver is typed Kern, whose Dup blocks.
  void KernelDup() {
    SpinGuard g(lock_);
    kern_->Dup(3);
  }

  // VIOLATION: an untyped receiver keeps every same-named candidate.
  void UntypedReceiver(Obj* o) {
    SpinGuard g(lock_);
    auto* t = Pick();
    t->Dup(o);
  }

  // VIOLATION: a virtual call is not bounded by the receiver's static type.
  void VirtualCall() {
    SpinGuard g(lock_);
    base_->Drop();
  }

 private:
  Spinlock lock_;
  Vfs vfs_;
  Table table_;
  Kern* kern_;
  Base* base_;
};

}  // namespace fix
