#include "fold/folder.hpp"

#include <algorithm>

namespace pp::fold {

namespace {

// Lattice-point budget for the exactness check; domains bigger than this
// are conservatively marked over-approximate.
constexpr u64 kCountCap = u64{1} << 22;

// point >_lex prev (strict).
bool lex_greater(std::span<const i64> point, const std::vector<i64>& prev) {
  for (std::size_t i = 0; i < prev.size(); ++i)
    if (point[i] != prev[i]) return point[i] > prev[i];
  return false;
}

// The first nonzero component is positive (stride >_lex 0).
template <class V>
bool lex_positive(const V& stride) {
  for (const auto& x : stride)
    if (x != 0) return x > 0;
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Folder

Folder::Folder(std::size_t in_dim, std::size_t label_dim, FolderOptions opts)
    : in_dim_(in_dim), label_dim_(label_dim), opts_(opts), result_(in_dim) {
  // Template expressions for dimension d: e_i for every i, then (with the
  // octagon enabled) e_i - e_j and e_i + e_j for every i < j.
  rows_.reserve(in_dim_ + (opts_.use_octagon ? in_dim_ * (in_dim_ - 1) : 0));
  for (std::size_t i = 0; i < in_dim_; ++i)
    rows_.push_back({static_cast<int>(i), -1, 0});
  if (opts_.use_octagon) {
    for (std::size_t i = 0; i < in_dim_; ++i) {
      for (std::size_t j = i + 1; j < in_dim_; ++j) {
        rows_.push_back({static_cast<int>(i), static_cast<int>(j), -1});
        rows_.push_back({static_cast<int>(i), static_cast<int>(j), 1});
      }
    }
  }
}

i128 Folder::eval_row(const TRow& t, std::span<const i64> pt) const {
  // Coefficients are ±1, so two i64 terms can never overflow i128.
  i128 v = pt[static_cast<std::size_t>(t.i)];
  if (t.j >= 0) v += static_cast<i128>(t.cj) * pt[static_cast<std::size_t>(t.j)];
  return v;
}

bool Folder::in_hull(const Chunk& c, std::span<const i64> point) const {
  // Full-rank basis: the affine hull is the whole space (the common case
  // once a loop nest has warmed up).
  if (c.basis_pts.size() == in_dim_ + 1) return true;
  if (!c.rat_hull)
    if (std::optional<bool> v = c.hull.contains(point)) return *v;
  ++rat_fallbacks_;
  return in_hull_rational(c.basis_pts, point);
}

bool Folder::predicts(const Chunk& c, std::span<const i64> point,
                      std::span<const i64> label) const {
  if (c.scaled)
    if (std::optional<bool> v = c.scaled->predicts(point, label)) return *v;
  ++rat_fallbacks_;
  return predicts_rational(c.fit, point, label);
}

void Folder::extend_basis(Chunk& c, std::span<const i64> point,
                          std::span<const i64> label) {
  c.basis_pts.emplace_back(point.begin(), point.end());
  c.basis_labels.emplace_back(label.begin(), label.end());
  if (!c.rat_hull && !c.hull.extend(point)) c.rat_hull = true;
}

void Folder::refit(Chunk& c) {
  // Fit [P 1] coeffs = a over the basis rows. The rows are affinely
  // independent by construction, so the system is always consistent
  // (possibly underdetermined: free coefficients go to 0). The hull's
  // pivots select the nonsingular square system the fraction-free kernel
  // solves.
  ++refits_;
  std::optional<LabelFit> fit;
  if (!c.rat_hull)
    fit = fit_fraction_free(c.basis_pts, c.basis_labels, c.hull.pivots(),
                            in_dim_, label_dim_);
  if (fit) {
    c.fit = std::move(*fit);
  } else {
    ++rat_fallbacks_;
    c.fit = fit_rational(c.basis_pts, c.basis_labels, in_dim_, label_dim_);
  }
  c.scaled = ScaledFit::from(c.fit, in_dim_, label_dim_);
}

Folder::Chunk Folder::make_chunk(std::span<const i64> point,
                                 std::span<const i64> label, u64 at_seq) {
  Chunk c;
  c.points = 1;
  c.last_use = at_seq;
  c.created = at_seq;
  c.bnd.resize(rows_.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    i128 v = eval_row(rows_[r], point);
    c.bnd[r] = {v, v};
  }
  extend_basis(c, point, label);
  refit(c);
  return c;
}

void Folder::absorb(Chunk& c, std::span<const i64> point,
                    std::span<const i64> label, bool refit_needed,
                    u64 at_seq) {
  if (!in_hull(c, point)) {
    extend_basis(c, point, label);
    // When the current fit already predicted the point, it remains a valid
    // solution of the extended system — no refit needed, and keeping it
    // preserves the agreement with every previously verified point.
    if (refit_needed) refit(c);
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    i128 v = eval_row(rows_[r], point);
    c.bnd[r].min = std::min(c.bnd[r].min, v);
    c.bnd[r].max = std::max(c.bnd[r].max, v);
  }
  ++c.points;
  c.last_use = at_seq;
}

std::size_t Folder::route_point(std::span<const i64> point,
                                std::span<const i64> label, u64 at_seq) {
  route_order_.resize(open_.size());
  for (std::size_t i = 0; i < open_.size(); ++i) route_order_[i] = i;
  // last_use values are distinct (each point routes to one chunk), so the
  // recency order is a strict total order.
  std::sort(route_order_.begin(), route_order_.end(),
            [this](std::size_t a, std::size_t b) {
              return open_[a].last_use > open_[b].last_use;
            });
  // 1. Route to an open piece whose affine function predicts the label.
  //    Scanning most-recent-first lets the first match win.
  for (std::size_t idx : route_order_) {
    if (predicts(open_[idx], point, label)) {
      absorb(open_[idx], point, label, /*refit_needed=*/false, at_seq);
      return idx;
    }
  }
  // 2. The most recent piece may absorb the point by refitting, when the
  //    point lies off its affine hull (fit unchanged on the hull, so all
  //    earlier verifications stand).
  if (!open_.empty()) {
    std::size_t mru = route_order_[0];
    if (!in_hull(open_[mru], point)) {
      absorb(open_[mru], point, label, /*refit_needed=*/true, at_seq);
      return mru;
    }
  }
  // 3. Open a new piece, evicting the least recently used past the budget.
  if (open_.size() >= opts_.max_open_chunks) {
    std::size_t lru = route_order_.back();
    close_chunk(open_[lru]);
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(lru));
  }
  open_.push_back(make_chunk(point, label, at_seq));
  return open_.size() - 1;
}

void Folder::start_run(std::span<const i64> point, std::span<const i64> label) {
  run_base_.assign(point.begin(), point.end());
  run_lbase_.assign(label.begin(), label.end());
  run_last_ = run_base_;
  run_llast_ = run_lbase_;
  run_len_ = 1;
  run_start_seq_ = seq_;
  run_stride_viol_ = false;
}

void Folder::set_run_last(std::span<const i64> point,
                          std::span<const i64> label) {
  run_last_.assign(point.begin(), point.end());
  run_llast_.assign(label.begin(), label.end());
}

bool Folder::continues_run(std::span<const i64> point,
                           std::span<const i64> label) const {
  for (std::size_t i = 0; i < in_dim_; ++i)
    if (static_cast<i128>(point[i]) - run_last_[i] != pstride_[i]) return false;
  for (std::size_t j = 0; j < label_dim_; ++j)
    if (static_cast<i128>(label[j]) - run_llast_[j] != lstride_[j])
      return false;
  return true;
}

bool Folder::fit_maps_stride(const Chunk& c) const {
  if (label_dim_ == 0) return true;
  if (c.scaled)
    if (std::optional<bool> v = c.scaled->maps_stride(pstride_, lstride_))
      return *v;
  ++rat_fallbacks_;
  // Overflow in the stride image falls back to scalar routing (which is
  // always sound) instead of faulting a stream the point-at-a-time path
  // would have survived.
  try {
    return maps_stride_rational(c.fit, pstride_, lstride_);
  } catch (const Error&) {
    return false;
  }
}

void Folder::merge_bounds(std::vector<Bnd>& bnd, std::span<const i64> a,
                          std::span<const i64> b) const {
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const i128 v1 = eval_row(rows_[r], a);
    const i128 v2 = eval_row(rows_[r], b);
    bnd[r].min = std::min(bnd[r].min, std::min(v1, v2));
    bnd[r].max = std::max(bnd[r].max, std::max(v1, v2));
  }
}

void Folder::bulk_absorb(Chunk& c, std::span<const i64> first,
                         std::span<const i64> first_label, u64 extra,
                         u64 end_seq) {
  // `first` is the earliest unabsorbed run point; `run_last_` the final
  // one. The chunk's fit maps the stride and already predicts the point
  // before `first`, so by affinity it predicts the whole remainder —
  // point-at-a-time routing would absorb every one of these into `c` with
  // no refits (and `c` stays MRU throughout). Affine hulls are closed
  // under affine combination, so only `first` can extend the basis; the
  // template rows are linear, so their min/max over the run sit at the
  // endpoints.
  if (!in_hull(c, first)) extend_basis(c, first, first_label);
  merge_bounds(c.bnd, first, run_last_);
  c.points += extra;
  c.last_use = end_seq;
}

void Folder::flush_run() {
  if (run_len_ == 0) return;
  const u64 n = run_len_;
  run_len_ = 0;
  ++run_flushes_;
  flushed_points_ += n;
  if (collapsed_) {
    // A collapsed folder's output is the template bounds of its points and
    // their count (finish()); routing would only grow chunks nobody reads.
    merge_bounds(collapse_bnd_, run_base_, run_last_);
    collapse_observed_ += n;
    run_stride_viol_ = false;
    return;
  }
  cur_pt_ = run_base_;
  cur_lab_ = run_lbase_;
  // Advance to the next run point (always a genuinely observed i64 point,
  // so the narrowing is exact).
  auto step = [this] {
    for (std::size_t i = 0; i < in_dim_; ++i)
      cur_pt_[i] = static_cast<i64>(cur_pt_[i] + pstride_[i]);
    for (std::size_t j = 0; j < label_dim_; ++j)
      cur_lab_[j] = static_cast<i64>(cur_lab_[j] + lstride_[j]);
  };
  // Kept because it pays: bench/fold_only is ~8% slower without it.
  if (n >= 2 && !open_.empty()) {
    // Routing asks the most recently used chunk first. When it predicts
    // the base and its fit maps the stride, routing would give it the
    // base and then bulk-absorb the rest: do both in one step. Only the
    // base and the second point can extend its hull.
    Chunk& c = *std::max_element(
        open_.begin(), open_.end(),
        [](const Chunk& a, const Chunk& b) { return a.last_use < b.last_use; });
    if (predicts(c, run_base_, run_lbase_) && fit_maps_stride(c)) {
      if (!in_hull(c, run_base_)) extend_basis(c, run_base_, run_lbase_);
      step();
      if (!in_hull(c, cur_pt_)) extend_basis(c, cur_pt_, cur_lab_);
      merge_bounds(c.bnd, run_base_, run_last_);
      c.points += n;
      c.last_use = run_start_seq_ + n - 1;
      if (run_stride_viol_) lex_ok_ = false;
      run_stride_viol_ = false;
      return;
    }
  }
  for (u64 k = 0; k < n; ++k) {
    std::size_t ci = route_point(cur_pt_, cur_lab_, run_start_seq_ + k);
    // A non-lex-positive stride violates monotonicity at every run point
    // AFTER the base — apply it only once the base has routed, so closes
    // forced by the base see the same lex state as point-at-a-time.
    if (k == 0 && run_stride_viol_) lex_ok_ = false;
    if (k + 1 >= n) break;
    step();
    if (fit_maps_stride(open_[ci])) {
      bulk_absorb(open_[ci], cur_pt_, cur_lab_, n - 1 - k,
                  run_start_seq_ + n - 1);
      break;
    }
  }
  run_stride_viol_ = false;
}

void Folder::add(std::span<const i64> point, std::span<const i64> label) {
  PP_CHECK(point.size() == in_dim_, "folder: point arity mismatch");
  PP_CHECK(label.size() == label_dim_, "folder: label arity mismatch");
  if (opts_.stride_runs) {
    append(point, label, {}, {}, 1);
    return;
  }
  // Reference point-at-a-time path (ablation knob): lexicographic check in
  // place against the previous point, then the routing steps.
  ++total_points_;
  ++seq_;
  if (have_prev_ && !lex_greater(point, run_last_)) lex_ok_ = false;
  run_last_.assign(point.begin(), point.end());
  have_prev_ = true;
  route_point(point, label, seq_);
}

void Folder::append(std::span<const i64> point, std::span<const i64> label,
                    std::span<const i64> pstride,
                    std::span<const i64> lstride, u64 n) {
  total_points_ += n;
  ++seq_;
  if (run_len_ == 0) {
    start_run(point, label);
  } else if (run_len_ == 1) {
    // Any second point establishes the stride.
    pstride_.resize(in_dim_);
    lstride_.resize(label_dim_);
    for (std::size_t i = 0; i < in_dim_; ++i)
      pstride_[i] = static_cast<i128>(point[i]) - run_base_[i];
    for (std::size_t j = 0; j < label_dim_; ++j)
      lstride_[j] = static_cast<i128>(label[j]) - run_lbase_[j];
    // Lexicographic sanity: the IIV construction guarantees increasing
    // coordinates within a context; a violation (or duplicate) makes the
    // distinct-point count unreliable, so exactness is forfeited. Within
    // a run the per-point check reduces to the stride's lex sign.
    run_stride_viol_ = !lex_positive(pstride_);
    set_run_last(point, label);
    run_len_ = 2;
  } else if (continues_run(point, label)) {
    set_run_last(point, label);
    ++run_len_;
  } else {
    flush_run();
    if (!lex_greater(point, run_last_)) lex_ok_ = false;
    start_run(point, label);
  }
  if (n == 1) return;
  // The other n − 1 points each differ from their predecessor by the
  // given strides; run_last_ holds the first point.
  if (run_len_ >= 2 &&
      !(std::equal(pstride.begin(), pstride.end(), pstride_.begin()) &&
        std::equal(lstride.begin(), lstride.end(), lstride_.begin()))) {
    // The second point breaks the pending run and starts the next one;
    // its lexicographic check against the first is the stride's sign.
    flush_run();
    if (!lex_positive(pstride)) lex_ok_ = false;
    ++seq_;
    --n;
    for (std::size_t i = 0; i < in_dim_; ++i) run_last_[i] += pstride[i];
    for (std::size_t j = 0; j < label_dim_; ++j) run_llast_[j] += lstride[j];
    start_run(run_last_, run_llast_);
    if (n == 1) return;
  }
  if (run_len_ == 1) {  // the run starting at run_last_ takes the strides
    pstride_.assign(pstride.begin(), pstride.end());
    lstride_.assign(lstride.begin(), lstride.end());
    run_stride_viol_ = !lex_positive(pstride);
  }
  run_len_ += n - 1;
  seq_ += n - 1;
  const i128 steps = static_cast<i128>(n - 1);
  for (std::size_t i = 0; i < in_dim_; ++i)
    run_last_[i] = static_cast<i64>(run_last_[i] + pstride[i] * steps);
  for (std::size_t j = 0; j < label_dim_; ++j)
    run_llast_[j] = static_cast<i64>(run_llast_[j] + lstride[j] * steps);
}

void Folder::add_run(std::span<const i64> point, std::span<const i64> label,
                     std::span<const i64> pstride,
                     std::span<const i64> lstride, u64 n) {
  PP_CHECK(point.size() == in_dim_ && pstride.size() == in_dim_,
           "folder: run point arity mismatch");
  PP_CHECK(label.size() == label_dim_ && lstride.size() == label_dim_,
           "folder: run label arity mismatch");
  if (n == 0) return;
  // Equivalence with n scalar add() calls needs each consecutive i128
  // difference to equal the stride exactly, i.e. no 64-bit wrap among the
  // run points. Coordinates move monotonically, so endpoint checks
  // suffice; a wrapping run replays through the scalar loop below.
  auto in_range = [n](std::span<const i64> base, std::span<const i64> stride) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      const i128 last = static_cast<i128>(base[i]) +
                        static_cast<i128>(stride[i]) * static_cast<i128>(n - 1);
      if (last < INT64_MIN || last > INT64_MAX) return false;
    }
    return true;
  };
  if (opts_.stride_runs && in_range(point, pstride) &&
      in_range(label, lstride)) {
    append(point, label, pstride, lstride, n);
    return;
  }
  auto wrap_add = [](i64 a, i64 b) {
    return static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b));
  };
  arun_pt_.assign(point.begin(), point.end());
  arun_lab_.assign(label.begin(), label.end());
  for (u64 k = 0; k < n; ++k) {
    if (k > 0) {
      for (std::size_t i = 0; i < in_dim_; ++i)
        arun_pt_[i] = wrap_add(arun_pt_[i], pstride[i]);
      for (std::size_t j = 0; j < label_dim_; ++j)
        arun_lab_[j] = wrap_add(arun_lab_[j], lstride[j]);
    }
    add(arun_pt_, arun_lab_);
  }
}

poly::Polyhedron Folder::emit_domain(const std::vector<Bnd>& bnd,
                                     bool& is_box, bool& clamped) const {
  poly::Polyhedron dom(in_dim_);
  is_box = true;
  clamped = false;
  // Usable as an AffineExpr constant term: both v and -v must fit int64.
  auto const_ok = [](i128 v) { return v > INT64_MIN && v <= INT64_MAX; };
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const TRow& t = rows_[r];
    const Bnd& b = bnd[r];
    // Emit only non-implied template constraints. A pair row x_i ± x_j is
    // implied by the single-variable bounds when its observed min/max
    // match what interval arithmetic on those bounds yields — an O(d²)
    // test that replaces LP-based redundancy elimination.
    bool lower_redundant = false, upper_redundant = false;
    if (t.j >= 0) {
      const Bnd& bi = bnd[static_cast<std::size_t>(t.i)];
      const Bnd& bj = bnd[static_cast<std::size_t>(t.j)];
      i128 imp_min = bi.min + (t.cj > 0 ? bj.min : -bj.max);
      i128 imp_max = bi.max + (t.cj > 0 ? bj.max : -bj.min);
      lower_redundant = b.min <= imp_min;
      upper_redundant = b.max >= imp_max;
      if (lower_redundant && upper_redundant) continue;
      is_box = false;
    }
    std::vector<i64> coeffs(in_dim_, 0);
    coeffs[static_cast<std::size_t>(t.i)] = 1;
    if (t.j >= 0) coeffs[static_cast<std::size_t>(t.j)] = t.cj;
    poly::AffineExpr e(std::move(coeffs), 0);
    // Octagon sum rows over extreme values (e.g. double bit patterns) can
    // hold i128 bounds outside int64: dropping the offending direction
    // keeps the domain a sound over-approximation, and `clamped` makes
    // the caller forfeit exactness instead of trapping the pipeline.
    if (b.min == b.max) {
      if (const_ok(b.min))
        dom.add_eq0(e - static_cast<i64>(b.min));
      else
        clamped = true;
      continue;
    }
    if (!lower_redundant) {
      if (const_ok(b.min))
        dom.add_ge0(e - static_cast<i64>(b.min));
      else
        clamped = true;
    }
    if (!upper_redundant) {
      if (b.max >= INT64_MIN && b.max <= INT64_MAX)
        dom.add_ge0(-(e) + static_cast<i64>(b.max));
      else
        clamped = true;
    }
  }
  return dom;
}

std::optional<u64> Folder::count_octagon_2d(const std::vector<Bnd>& bnd) const {
  // rows_ layout for d=2 with octagon: [x], [y], [x-y], [x+y]. For fixed
  // x the feasible y range is [L(x), U(x)] with
  //   L = max(y_lo, x - d_hi, s_lo - x),  U = min(y_hi, x - d_lo, s_hi - x),
  // all slopes in {-1, 0, 1}. The count is sum over x of max(0, U-L+1) —
  // evaluated in closed form by cutting [x_lo, x_hi] at the (≤ 12)
  // pairwise crossings, where each segment's envelope is a single affine
  // piece and its contribution an exact arithmetic series.
  const i128 x_lo = bnd[0].min, x_hi = bnd[0].max;
  if (x_lo > x_hi) return 0;
  struct Aff {
    i128 m, c;
    i128 at(i128 x) const { return m * x + c; }
  };
  const Aff lo[3] = {{0, bnd[1].min}, {1, -bnd[2].max}, {-1, bnd[3].min}};
  const Aff hi[3] = {{0, bnd[1].max}, {1, -bnd[2].min}, {-1, bnd[3].max}};

  i128 cuts[28];
  std::size_t ncuts = 0;
  cuts[ncuts++] = x_lo;
  auto add_crossings = [&](const Aff* f) {
    for (std::size_t a = 0; a < 3; ++a) {
      for (std::size_t b = a + 1; b < 3; ++b) {
        if (f[a].m == f[b].m) continue;
        i128 cross = floor_div(f[b].c - f[a].c, f[a].m - f[b].m);
        for (i128 v : {cross, cross + 1})
          if (v > x_lo && v <= x_hi) cuts[ncuts++] = v;
      }
    }
  };
  add_crossings(lo);
  add_crossings(hi);
  std::sort(cuts, cuts + ncuts);
  ncuts = static_cast<std::size_t>(std::unique(cuts, cuts + ncuts) - cuts);

  const i128 cap = static_cast<i128>(kCountCap);
  i128 total = 0;
  for (std::size_t t = 0; t < ncuts; ++t) {
    const i128 s = cuts[t];
    const i128 e = (t + 1 < ncuts) ? cuts[t + 1] - 1 : x_hi;
    // No crossings strictly inside the segment, so one component of each
    // envelope dominates at both endpoints (pick it by endpoint values).
    auto pick = [&](const Aff* f, bool want_max) {
      std::size_t best = 0;
      for (std::size_t a = 1; a < 3; ++a) {
        i128 ds = f[a].at(s) - f[best].at(s);
        i128 de = f[a].at(e) - f[best].at(e);
        if (!want_max) {
          ds = -ds;
          de = -de;
        }
        if (ds > 0 || (ds == 0 && de > 0)) best = a;
      }
      return f[best];
    };
    const Aff l = pick(lo, /*want_max=*/true);
    const Aff u = pick(hi, /*want_max=*/false);
    // g(x) = U(x) - L(x) + 1, affine on the segment; sum max(0, g).
    const i128 beta = u.m - l.m;
    const i128 alpha = u.c - l.c + 1;
    i128 from = s, to = e;
    if (beta == 0) {
      if (alpha < 1) continue;
    } else if (beta > 0) {
      from = std::max(from, ceil_div(1 - alpha, beta));
    } else {
      to = std::min(to, floor_div(1 - alpha, beta));
    }
    if (from > to) continue;
    const i128 terms = to - from + 1;
    // Every term is >= 1, so a term count past the cap already overflows
    // it (and keeps the series arithmetic far from i128 limits).
    if (terms > cap) return std::nullopt;
    const i128 g_from = alpha + beta * from;
    const i128 g_to = alpha + beta * to;
    total += terms * (g_from + g_to) / 2;
    if (total > cap) return std::nullopt;
  }
  return static_cast<u64>(total);
}

std::optional<u64> Folder::count_chunk(const Chunk& c, bool is_box,
                                       const poly::Polyhedron& dom) const {
  const i128 cap = static_cast<i128>(kCountCap);
  if (is_box) {
    // Closed-form box volume, capped like enumeration.
    i128 count = 1;
    for (std::size_t i = 0; i < in_dim_; ++i) {
      count = mul_checked(count, c.bnd[i].max - c.bnd[i].min + 1);
      if (count > cap) return std::nullopt;
    }
    return static_cast<u64>(count);
  }
  if (in_dim_ == 2 && opts_.use_octagon) return count_octagon_2d(c.bnd);
  // Genuinely irregular (3D+ non-box): enumerate, but never past the
  // observed count — the caller only counts when the stream was strictly
  // lex-increasing, so its points are distinct members of the domain and
  // lattice_count > points already settles the verdict as inexact.
  return dom.count_points(std::min<u64>(kCountCap, c.points));
}

poly::Piece Folder::build_piece(const Chunk& chunk) const {
  bool is_box = true, clamped = false;
  poly::Polyhedron dom = emit_domain(chunk.bnd, is_box, clamped);

  bool domain_exact = lex_ok_ && !clamped;
  if (in_dim_ == 0) {
    domain_exact = lex_ok_ && chunk.points == 1;
  } else if (domain_exact) {
    std::optional<u64> n = count_chunk(chunk, is_box, dom);
    domain_exact = n.has_value() && *n == chunk.points;
  }

  // Integral affine label function? Coefficients must be integers that fit
  // in 64 bits — fits through wild values (e.g. double bit patterns) can
  // produce huge rational coefficients, which simply means "not a SCEV".
  auto representable = [](const Rat& r) {
    return r.is_integer() && r.num() >= INT64_MIN && r.num() <= INT64_MAX;
  };
  bool label_ok = true;
  std::vector<poly::AffineExpr> outs;
  outs.reserve(label_dim_);
  for (std::size_t j = 0; j < label_dim_ && label_ok; ++j) {
    const Rat* row = chunk.fit.data() + j * (in_dim_ + 1);
    std::vector<i64> coeffs(in_dim_);
    for (std::size_t i = 0; i < in_dim_; ++i) {
      if (!representable(row[i])) {
        label_ok = false;
        break;
      }
      coeffs[i] = narrow_i64(row[i].num());
    }
    if (!label_ok || !representable(row[in_dim_])) {
      label_ok = false;
      break;
    }
    outs.emplace_back(std::move(coeffs), narrow_i64(row[in_dim_].num()));
  }
  if (!label_ok) outs.assign(label_dim_, poly::AffineExpr(in_dim_));

  poly::Piece piece;
  piece.domain = std::move(dom);
  piece.label_fn = poly::AffineMap(in_dim_, std::move(outs));
  piece.exact = domain_exact && label_ok;
  piece.label_exact = label_ok;
  piece.observed_points = chunk.points;
  return piece;
}

void Folder::close_chunk(Chunk& chunk) {
  // Running collapse bounds: every close merges its template bounds in
  // O(d²), so the collapsed over-approximation in finish() never needs
  // the accumulated pieces themselves.
  if (collapse_bnd_.empty()) {
    collapse_bnd_ = chunk.bnd;
  } else {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      collapse_bnd_[r].min = std::min(collapse_bnd_[r].min, chunk.bnd[r].min);
      collapse_bnd_[r].max = std::max(collapse_bnd_[r].max, chunk.bnd[r].max);
    }
  }
  collapse_observed_ += chunk.points;

  if (result_.pieces().size() >= opts_.max_pieces) collapsed_ = true;
  // Once the piece cap trips, finish() replaces everything with the
  // bound-merged over-approximation — stop materializing pieces at all.
  if (collapsed_) return;

  result_.add_piece(build_piece(chunk));
}

poly::PolySet Folder::finish() {
  flush_run();
  // Close remaining chunks in creation order for stable output.
  std::sort(open_.begin(), open_.end(),
            [](const Chunk& a, const Chunk& b) { return a.created < b.created; });
  for (auto& c : open_) close_chunk(c);
  open_.clear();
  poly::PolySet out = std::move(result_);
  result_ = poly::PolySet(in_dim_);
  lex_ok_ = true;
  run_len_ = 0;
  run_stride_viol_ = false;
  have_prev_ = false;

  const bool was_collapsed = collapsed_;
  std::vector<Bnd> merged_bnd = std::move(collapse_bnd_);
  const u64 merged_observed = collapse_observed_;
  collapsed_ = false;
  collapse_bnd_.clear();
  collapse_observed_ = 0;

  if (was_collapsed) {
    // Scalability guard tripped: merge everything into one
    // over-approximate template piece (paper §5, over-approximation),
    // built from the running bounds — O(d²) regardless of piece count.
    bool is_box = true, clamped = false;
    if (merged_bnd.empty()) merged_bnd.resize(rows_.size());
    poly::Polyhedron dom = emit_domain(merged_bnd, is_box, clamped);
    poly::Piece merged;
    merged.domain = std::move(dom);
    merged.label_fn = poly::AffineMap(
        in_dim_, std::vector<poly::AffineExpr>(label_dim_,
                                               poly::AffineExpr(in_dim_)));
    merged.exact = false;
    merged.label_exact = false;
    merged.observed_points = merged_observed;
    poly::PolySet collapsed_set(in_dim_);
    collapsed_set.add_piece(std::move(merged));
    return collapsed_set;
  }
  return out;
}

}  // namespace pp::fold
