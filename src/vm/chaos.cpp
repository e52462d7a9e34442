#include "vm/chaos.hpp"

namespace pp::vm {

namespace {

u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kUnmatchedReturn: return "unmatched-return";
    case FaultKind::kMisalign: return "misalign";
    case FaultKind::kBadFunc: return "bad-func";
    case FaultKind::kBadBlock: return "bad-block";
  }
  return "?";
}

const char* cancel_point_name(CancelPoint p) {
  switch (p) {
    case CancelPoint::kNone: return "none";
    case CancelPoint::kCancelAtControl: return "cancel-at-control";
    case CancelPoint::kCancelAtDdg: return "cancel-at-ddg";
    case CancelPoint::kCancelAtFold: return "cancel-at-fold";
    case CancelPoint::kCancelAtFeedback: return "cancel-at-feedback";
    case CancelPoint::kDeadlineMidFold: return "deadline-mid-fold";
  }
  return "?";
}

ChaosObserver::ChaosObserver(Observer* inner, ChaosOptions opts)
    : inner_(inner), opts_(opts) {
  u64 span = opts_.window == 0 ? 1 : opts_.window;
  trigger_ = opts_.min_events + splitmix64(opts_.seed) % span;
}

bool ChaosObserver::tick() {
  if (injected_ || opts_.kind == FaultKind::kNone) return false;
  return ++events_ > trigger_;
}

void ChaosObserver::on_local_jump(int func, int dst_bb) {
  if (dead_) return;
  cur_func_ = func;
  if (tick()) {
    injected_ = true;
    switch (opts_.kind) {
      case FaultKind::kTruncate:
        dead_ = true;
        return;
      case FaultKind::kUnmatchedReturn:
        inner_->on_return(/*callee=*/1'000'000, CodeRef{func, dst_bb, 0});
        break;
      case FaultKind::kBadFunc:
        inner_->on_local_jump(10'000'019, 0);
        break;
      case FaultKind::kBadBlock:
        inner_->on_local_jump(cur_func_, 10'000'019);
        break;
      case FaultKind::kMisalign:
        armed_misalign_ = true;
        break;
      case FaultKind::kNone:
        break;
    }
  }
  inner_->on_local_jump(func, dst_bb);
}

void ChaosObserver::on_call(CodeRef callsite, int callee) {
  if (dead_) return;
  cur_func_ = callee;
  if (tick()) {
    injected_ = true;
    switch (opts_.kind) {
      case FaultKind::kTruncate:
        dead_ = true;
        return;
      case FaultKind::kUnmatchedReturn:
        inner_->on_return(/*callee=*/1'000'000, callsite);
        break;
      case FaultKind::kBadFunc:
        inner_->on_call(callsite, 10'000'019);
        return;  // the corrupted call replaces the real one
      case FaultKind::kBadBlock:
        inner_->on_local_jump(callsite.func, 10'000'019);
        break;
      case FaultKind::kMisalign:
        armed_misalign_ = true;
        break;
      case FaultKind::kNone:
        break;
    }
  }
  inner_->on_call(callsite, callee);
}

void ChaosObserver::on_return(int callee, CodeRef into) {
  if (dead_) return;
  cur_func_ = into.func;
  if (tick()) {
    injected_ = true;
    switch (opts_.kind) {
      case FaultKind::kTruncate:
        dead_ = true;
        return;
      case FaultKind::kUnmatchedReturn:
        inner_->on_return(/*callee=*/1'000'000, into);
        break;
      case FaultKind::kBadFunc:
        inner_->on_local_jump(10'000'019, 0);
        break;
      case FaultKind::kBadBlock:
        inner_->on_local_jump(cur_func_, 10'000'019);
        break;
      case FaultKind::kMisalign:
        armed_misalign_ = true;
        break;
      case FaultKind::kNone:
        break;
    }
  }
  inner_->on_return(callee, into);
}

void ChaosObserver::on_instr(const InstrEvent& ev) {
  if (dead_) return;
  if (tick()) {
    injected_ = true;
    switch (opts_.kind) {
      case FaultKind::kTruncate:
        dead_ = true;
        return;
      case FaultKind::kUnmatchedReturn:
        inner_->on_return(/*callee=*/1'000'000, ev.ref);
        break;
      case FaultKind::kBadFunc:
        inner_->on_local_jump(10'000'019, 0);
        break;
      case FaultKind::kBadBlock:
        inner_->on_local_jump(ev.ref.func, 10'000'019);
        break;
      case FaultKind::kMisalign:
        armed_misalign_ = true;
        break;
      case FaultKind::kNone:
        break;
    }
  }
  if (armed_misalign_ && ev.instr != nullptr &&
      ir::op_is_memory(ev.instr->op)) {
    armed_misalign_ = false;
    InstrEvent corrupted = ev;
    corrupted.address += 3;  // aligned + 3 is never 8-byte aligned
    inner_->on_instr(corrupted);
    return;
  }
  inner_->on_instr(ev);
}

}  // namespace pp::vm
