#include "fold/folder.hpp"

#include <algorithm>

namespace pp::fold {

namespace {

// Reduce [point 1] against RREF hull rows in place.
void hull_reduce(const RatMatrix& hull, RatVec& v) {
  std::size_t width = v.size();
  for (std::size_t r = 0; r < hull.rows(); ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      if (!hull.at(r, c).is_zero()) {
        if (!v[c].is_zero()) {
          Rat f = v[c];
          for (std::size_t k = c; k < width; ++k) v[k] -= f * hull.at(r, k);
        }
        break;
      }
    }
  }
}

// point >_lex prev (strict).
bool lex_greater(std::span<const i64> point, const std::vector<i64>& prev) {
  for (std::size_t i = 0; i < prev.size(); ++i)
    if (point[i] != prev[i]) return point[i] > prev[i];
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// FoldCache

std::size_t FoldCache::KeyHash::operator()(const Key& k) const {
  // FNV-1a over the key words.
  u64 h = 14695981039346656037ull;
  for (u64 w : k) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const poly::Piece> FoldCache::find(const Key& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

void FoldCache::insert(Key key, std::shared_ptr<const poly::Piece> piece) {
  if (map_.size() >= kMaxEntries) return;
  map_.emplace(std::move(key), std::move(piece));
}

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

void Folder::rebuild_hull_int(Chunk& c) const {
  // Scale each RREF row to integers (row × lcm of its denominators) so
  // membership tests run fraction-free. The test only needs zero/nonzero
  // of the reduced vector, so uniform row scaling is harmless. Any
  // overflow while scaling abandons the fast path for this chunk.
  //
  // The rows are stored sorted by pivot column: in_hull's reduction
  // rescales only the suffix v[pivot..], which keeps the accumulated
  // per-component scale uniform across each elimination's suffix ONLY
  // when pivots are visited in increasing order. Reducing with a
  // smaller-pivot row after a larger-pivot one would combine
  // differently-scaled components and corrupt the zero/nonzero verdict
  // (extend_basis appends rows in discovery order, so decreasing pivots
  // do occur).
  c.hull_int.clear();
  c.hull_piv.clear();
  try {
    const std::size_t width = in_dim_ + 1;
    for (std::size_t r = 0; r < c.hull.rows(); ++r) {
      i128 l = 1;
      for (std::size_t k = 0; k < width; ++k)
        l = lcm(l, c.hull.at(r, k).den());
      std::vector<i128> row(width);
      std::size_t piv = width;
      for (std::size_t k = 0; k < width; ++k) {
        const Rat& x = c.hull.at(r, k);
        row[k] = mul_checked(x.num(), l / x.den());
        if (piv == width && row[k] != 0) piv = k;
      }
      PP_CHECK(piv < width, "hull row with no pivot");
      c.hull_int.push_back(std::move(row));
      c.hull_piv.push_back(piv);
    }
    for (std::size_t a = 1; a < c.hull_int.size(); ++a) {
      // Insertion sort by pivot: row counts are tiny (≤ in_dim_ + 1).
      std::size_t b = a;
      while (b > 0 && c.hull_piv[b - 1] > c.hull_piv[b]) {
        std::swap(c.hull_piv[b - 1], c.hull_piv[b]);
        std::swap(c.hull_int[b - 1], c.hull_int[b]);
        --b;
      }
    }
  } catch (const Error&) {
    c.hull_int.clear();
    c.hull_piv.clear();
  }
}

bool Folder::in_hull(const Chunk& c, std::span<const i64> point) const {
  // Full-rank basis: the affine hull is the whole space (the common case
  // once a loop nest has warmed up).
  if (c.hull.rows() == in_dim_ + 1) return true;
  const std::size_t width = in_dim_ + 1;
  if (c.hull_int.size() == c.hull.rows()) {
    // Fraction-free fast path: reduce [point 1] against the scaled rows.
    // Eliminating pivot column p of row R rescales v by R[p]; scale never
    // affects the zero/nonzero verdict. Overflow (rare, needs huge
    // coordinates) falls through to the exact rational path.
    try {
      hullv_.resize(width);
      for (std::size_t i = 0; i < in_dim_; ++i) hullv_[i] = point[i];
      hullv_[in_dim_] = 1;
      for (std::size_t r = 0; r < c.hull_int.size(); ++r) {
        const std::size_t p = c.hull_piv[r];
        const i128 f = hullv_[p];
        if (f == 0) continue;
        const std::vector<i128>& row = c.hull_int[r];
        const i128 s = row[p];
        for (std::size_t k = p; k < width; ++k)
          hullv_[k] = sub_checked(mul_checked(s, hullv_[k]),
                                  mul_checked(f, row[k]));
      }
      for (const i128& x : hullv_)
        if (x != 0) return false;
      return true;
    } catch (const Error&) {
      // fall through to the rational path
    }
  }
  RatVec v(width);
  for (std::size_t i = 0; i < in_dim_; ++i) v[i] = Rat(point[i]);
  v[in_dim_] = Rat(1);
  hull_reduce(c.hull, v);
  for (const auto& x : v)
    if (!x.is_zero()) return false;
  return true;
}

bool Folder::predicts(const Chunk& c, std::span<const i64> point,
                      std::span<const i64> label) const {
  if (!c.fit_int.empty()) {
    // Integer fast path: pure 128-bit arithmetic, no gcd normalization.
    for (std::size_t j = 0; j < label_dim_; ++j) {
      i128 acc = c.fit_int[j][in_dim_];
      for (std::size_t i = 0; i < in_dim_; ++i)
        if (c.fit_int[j][i] != 0)
          acc = add_checked(acc, mul_checked(c.fit_int[j][i], point[i]));
      if (acc != label[j]) return false;
    }
    return true;
  }
  for (std::size_t j = 0; j < label_dim_; ++j) {
    Rat acc = c.fit[j][in_dim_];
    for (std::size_t i = 0; i < in_dim_; ++i)
      if (!c.fit[j][i].is_zero()) acc += c.fit[j][i] * Rat(point[i]);
    if (acc != Rat(label[j])) return false;
  }
  return true;
}

void Folder::extend_basis(Chunk& c, std::span<const i64> point,
                          std::span<const i64> label) {
  c.basis_pts.emplace_back(point.begin(), point.end());
  c.basis_labels.emplace_back(label.begin(), label.end());
  RatVec v(in_dim_ + 1);
  for (std::size_t i = 0; i < in_dim_; ++i) v[i] = Rat(point[i]);
  v[in_dim_] = Rat(1);
  hull_reduce(c.hull, v);
  std::size_t pivot = in_dim_ + 1;
  for (std::size_t col = 0; col <= in_dim_; ++col) {
    if (!v[col].is_zero()) {
      pivot = col;
      break;
    }
  }
  PP_CHECK(pivot <= in_dim_, "extend_basis: point already in hull");
  Rat inv = Rat(1) / v[pivot];
  for (std::size_t k = pivot; k <= in_dim_; ++k) v[k] *= inv;
  // Back-eliminate to keep RREF.
  for (std::size_t r = 0; r < c.hull.rows(); ++r) {
    Rat f = c.hull.at(r, pivot);
    if (f.is_zero()) continue;
    for (std::size_t k = pivot; k <= in_dim_; ++k)
      c.hull.at(r, k) -= f * v[k];
  }
  c.hull.push_row(v);
  rebuild_hull_int(c);
}

void Folder::refit(Chunk& c) {
  // Solve [P 1] coeffs = a per label dimension over the basis rows. The
  // rows are affinely independent by construction, so the system is always
  // consistent (possibly underdetermined: free coefficients go to 0).
  RatMatrix sys(c.basis_pts.size(), in_dim_ + 1);
  for (std::size_t r = 0; r < c.basis_pts.size(); ++r) {
    for (std::size_t i = 0; i < in_dim_; ++i)
      sys.at(r, i) = Rat(c.basis_pts[r][i]);
    sys.at(r, in_dim_) = Rat(1);
  }
  c.fit.assign(label_dim_, RatVec(in_dim_ + 1, Rat(0)));
  for (std::size_t j = 0; j < label_dim_; ++j) {
    RatVec rhs(c.basis_pts.size());
    for (std::size_t r = 0; r < c.basis_pts.size(); ++r)
      rhs[r] = Rat(c.basis_labels[r][j]);
    auto sol = sys.solve(rhs);
    PP_CHECK(sol.has_value(), "refit on affinely independent basis failed");
    c.fit[j] = *sol;
  }
  // Precompute the integer fast path when every coefficient is integral.
  c.fit_int.clear();
  bool integral = true;
  for (const auto& row : c.fit) {
    for (const auto& coeff : row) {
      if (!coeff.is_integer()) {
        integral = false;
        break;
      }
    }
    if (!integral) break;
  }
  if (integral) {
    c.fit_int.resize(label_dim_);
    for (std::size_t j = 0; j < label_dim_; ++j) {
      c.fit_int[j].resize(in_dim_ + 1);
      for (std::size_t i = 0; i <= in_dim_; ++i)
        c.fit_int[j][i] = c.fit[j][i].num();
    }
  }
}

Folder::Chunk Folder::make_chunk(std::span<const i64> point,
                                 std::span<const i64> label, u64 at_seq) {
  Chunk c;
  c.id = ++next_chunk_id_;
  c.points = 1;
  c.last_use = at_seq;
  c.created = at_seq;
  c.bnd.resize(rows_.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    i128 v = eval_row(rows_[r], point);
    c.bnd[r] = {v, v};
  }
  c.hull = RatMatrix(0, in_dim_ + 1);
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

bool Folder::fit_maps_stride(const Chunk& c) const {
  return fit_maps(c, pstride_, lstride_);
}

bool Folder::fit_maps(const Chunk& c, std::span<const i128> ps,
                      std::span<const i128> ls) const {
  if (label_dim_ == 0) return true;
  // Overflow in the stride image falls back to scalar routing (which is
  // always sound) instead of faulting a stream the point-at-a-time path
  // would have survived.
  try {
    if (!c.fit_int.empty()) {
      for (std::size_t j = 0; j < label_dim_; ++j) {
        i128 acc = 0;
        for (std::size_t i = 0; i < in_dim_; ++i)
          if (c.fit_int[j][i] != 0)
            acc = add_checked(acc, mul_checked(c.fit_int[j][i], ps[i]));
        if (acc != ls[j]) return false;
      }
      return true;
    }
    for (std::size_t j = 0; j < label_dim_; ++j) {
      Rat acc(0);
      for (std::size_t i = 0; i < in_dim_; ++i)
        if (!c.fit[j][i].is_zero()) acc += c.fit[j][i] * Rat(ps[i]);
      if (acc != Rat(ls[j])) return false;
    }
    return true;
  } catch (const Error&) {
    return false;
  }
}

Folder::Chunk* Folder::chunk_by_id(u64 id) {
  for (auto& c : open_)
    if (c.id == id) return &c;
  return nullptr;
}

bool Folder::chain_defer(u64 n) {
  if (chain_state_ == ChainState::kNone) return false;
  if (run_stride_viol_ || n < 2 || n != chain_T_) return false;
  if (pstride_ != chain_s_ || lstride_ != chain_ls_) return false;
  if (chain_state_ == ChainState::kArmed) {
    // Within-group extension: the base advances by exactly the level-2
    // stride. The geometric conditions were established when the chain
    // armed and no chunk state has changed since, so O(d) delta checks
    // suffice.
    bool within = true;
    for (std::size_t i = 0; within && i < in_dim_; ++i)
      within = static_cast<i128>(run_base_[i]) - chain_last_base_[i] ==
               chain_o1_[i];
    for (std::size_t j = 0; within && j < label_dim_; ++j)
      within = static_cast<i128>(run_lbase_[j]) - chain_last_lbase_[j] ==
               chain_lo1_[j];
    if (within) {
      if (chain_R_ != 0 && chain_B_ >= chain_R_) return false;  // irregular
      ++chain_B_;
    } else if (chain_R_ == 0) {
      // First group boundary: learn the group size and the level-3
      // stride. The new group base b = base0 + o2 needs the full
      // point-routing conditions once — the fit must predict it (so
      // generic routing would pick this chunk, the MRU, at step 1) and it
      // must sit in the affine hull (so absorption would not extend the
      // basis). The fit mapping o2 then propagates both properties to
      // every later group: each next group base differs by o2, a hull
      // direction, from a predicted hull member.
      Chunk* c = chunk_by_id(chain_chunk_id_);
      PP_CHECK(c != nullptr, "folder: chained chunk vanished");
      chain_o2_.resize(in_dim_);
      chain_lo2_.resize(label_dim_);
      for (std::size_t i = 0; i < in_dim_; ++i)
        chain_o2_[i] = static_cast<i128>(run_base_[i]) - chain_base0_[i];
      for (std::size_t j = 0; j < label_dim_; ++j)
        chain_lo2_[j] = static_cast<i128>(run_lbase_[j]) - chain_lbase0_[j];
      if (!fit_maps(*c, chain_o2_, chain_lo2_)) return false;
      if (!predicts(*c, run_base_, run_lbase_)) return false;
      if (!in_hull(*c, run_base_)) return false;
      chain_R_ = chain_B_;
      chain_M_ = 2;
      chain_B_ = 1;
      chain_group_base_.assign(run_base_.begin(), run_base_.end());
      chain_group_lbase_.assign(run_lbase_.begin(), run_lbase_.end());
    } else {
      // Later group boundaries: only complete groups advancing by the
      // learned level-3 stride extend the chain.
      if (chain_B_ != chain_R_) return false;
      bool boundary = true;
      for (std::size_t i = 0; boundary && i < in_dim_; ++i)
        boundary = static_cast<i128>(run_base_[i]) - chain_group_base_[i] ==
                   chain_o2_[i];
      for (std::size_t j = 0; boundary && j < label_dim_; ++j)
        boundary = static_cast<i128>(run_lbase_[j]) - chain_group_lbase_[j] ==
                   chain_lo2_[j];
      if (!boundary) return false;
      ++chain_M_;
      chain_B_ = 1;
      chain_group_base_.assign(run_base_.begin(), run_base_.end());
      chain_group_lbase_.assign(run_lbase_.begin(), run_lbase_.end());
    }
    chain_last_base_.assign(run_base_.begin(), run_base_.end());
    chain_last_lbase_.assign(run_lbase_.begin(), run_lbase_.end());
    chain_points_ += n;
    chain_end_seq_ = run_start_seq_ + n - 1;
    return true;
  }
  // Seeded: try to arm on this run. Deferring run points (b + t·s,
  // t < n) and every later matching run (bases b + e·o1 and, past the
  // first group boundary, + g·o2) is equivalent to the generic flush path
  // iff, on the seed chunk c:
  //   * the fit maps every stride and predicts b — then it predicts every
  //     deferred point by affinity, so point-at-a-time routing would pick
  //     c (it is MRU: it took the seed run's last point, and no other
  //     routing happens mid-chain) via step 1 with no refit;
  //   * the generators b, b + (n-1)·s and b + o1 lie in c's affine hull —
  //     affine hulls are closed under affine combination, so every
  //     deferred point does too, and point-at-a-time absorption would
  //     never extend the basis.
  // Template rows are linear, so their min/max over the deferred block
  // sit at its lattice corners, applied in chain_finalize().
  Chunk* c = chunk_by_id(chain_chunk_id_);
  if (c == nullptr) {
    chain_state_ = ChainState::kNone;
    return false;
  }
  chain_o1_.resize(in_dim_);
  chain_lo1_.resize(label_dim_);
  chain_tmp_.resize(in_dim_);
  for (std::size_t i = 0; i < in_dim_; ++i) {
    chain_o1_[i] = static_cast<i128>(run_base_[i]) - chain_seed_base_[i];
    const i128 probe = static_cast<i128>(run_base_[i]) + chain_o1_[i];
    if (probe < INT64_MIN || probe > INT64_MAX) return false;
    chain_tmp_[i] = static_cast<i64>(probe);
  }
  for (std::size_t j = 0; j < label_dim_; ++j)
    chain_lo1_[j] = static_cast<i128>(run_lbase_[j]) - chain_seed_lbase_[j];
  if (!fit_maps(*c, pstride_, lstride_) ||
      !fit_maps(*c, chain_o1_, chain_lo1_))
    return false;
  if (!predicts(*c, run_base_, run_lbase_)) return false;
  if (!in_hull(*c, run_base_) || !in_hull(*c, run_last_) ||
      !in_hull(*c, chain_tmp_))
    return false;
  chain_state_ = ChainState::kArmed;
  chain_base0_.assign(run_base_.begin(), run_base_.end());
  chain_lbase0_.assign(run_lbase_.begin(), run_lbase_.end());
  chain_group_base_ = chain_base0_;
  chain_group_lbase_ = chain_lbase0_;
  chain_last_base_ = chain_base0_;
  chain_last_lbase_ = chain_lbase0_;
  chain_R_ = 0;
  chain_M_ = 1;
  chain_B_ = 1;
  chain_points_ = n;
  chain_end_seq_ = run_start_seq_ + n - 1;
  return true;
}

void Folder::chain_finalize() {
  if (chain_state_ != ChainState::kArmed) {
    chain_state_ = ChainState::kNone;
    return;
  }
  chain_state_ = ChainState::kNone;
  Chunk* c = chunk_by_id(chain_chunk_id_);
  PP_CHECK(c != nullptr, "folder: chained chunk vanished");
  // Template rows are linear, so their extrema over the deferred block —
  // a full (M-1)×R×n lattice box plus the current (possibly partial)
  // group's B×n slice — sit at the corners of those two boxes. Every
  // corner is a genuinely observed point, so the i64 narrowing is exact.
  chain_tmp_.resize(in_dim_);
  auto fold_corner = [&](u64 g, u64 e, u64 t) {
    for (std::size_t i = 0; i < in_dim_; ++i) {
      i128 v = static_cast<i128>(chain_base0_[i]) +
               static_cast<i128>(t) * chain_s_[i] +
               static_cast<i128>(e) * chain_o1_[i];
      if (g > 0) v += static_cast<i128>(g) * chain_o2_[i];
      chain_tmp_[i] = static_cast<i64>(v);
    }
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      const i128 v = eval_row(rows_[r], chain_tmp_);
      c->bnd[r].min = std::min(c->bnd[r].min, v);
      c->bnd[r].max = std::max(c->bnd[r].max, v);
    }
  };
  const u64 t_hi = chain_T_ - 1;
  if (chain_M_ >= 2) {
    // Complete groups 0 .. M-2 (each R runs).
    for (u64 g : {u64{0}, chain_M_ - 2})
      for (u64 e : {u64{0}, chain_R_ - 1})
        for (u64 t : {u64{0}, t_hi}) fold_corner(g, e, t);
  }
  // Current group (ordinal M, B runs, possibly partial).
  for (u64 e : {u64{0}, chain_B_ - 1})
    for (u64 t : {u64{0}, t_hi}) fold_corner(chain_M_ - 1, e, t);
  c->points += chain_points_;
  c->last_use = chain_end_seq_;
}

void Folder::chain_seed(u64 n, u64 chunk_id, bool clean) {
  if (!clean || n < 2) {
    chain_state_ = ChainState::kNone;
    return;
  }
  chain_state_ = ChainState::kSeeded;
  chain_chunk_id_ = chunk_id;
  chain_T_ = n;
  chain_s_.assign(pstride_.begin(), pstride_.end());
  chain_ls_.assign(lstride_.begin(), lstride_.end());
  chain_seed_base_.assign(run_base_.begin(), run_base_.end());
  chain_seed_lbase_.assign(run_lbase_.begin(), run_lbase_.end());
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
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    i128 v1 = eval_row(rows_[r], first);
    i128 v2 = eval_row(rows_[r], run_last_);
    c.bnd[r].min = std::min(c.bnd[r].min, std::min(v1, v2));
    c.bnd[r].max = std::max(c.bnd[r].max, std::max(v1, v2));
  }
  c.points += extra;
  c.last_use = end_seq;
}

void Folder::flush_run() {
  if (run_len_ == 0) return;
  const u64 n = run_len_;
  run_len_ = 0;
  if (chain_defer(n)) {
    run_stride_viol_ = false;
    return;
  }
  chain_finalize();
  std::size_t base_ci = 0;
  bool clean = false;
  cur_pt_ = run_base_;
  cur_lab_ = run_lbase_;
  for (u64 k = 0; k < n; ++k) {
    std::size_t ci = route_point(cur_pt_, cur_lab_, run_start_seq_ + k);
    if (k == 0) base_ci = ci;
    // A non-lex-positive stride violates monotonicity at every run point
    // AFTER the base — apply it only once the base has routed, so closes
    // forced by the base see the same lex state as point-at-a-time.
    if (k == 0 && run_stride_viol_) lex_ok_ = false;
    if (k + 1 >= n) break;
    // Advance to the next run point (always a genuinely observed i64
    // point, so the narrowing is exact).
    for (std::size_t i = 0; i < in_dim_; ++i)
      cur_pt_[i] = static_cast<i64>(cur_pt_[i] + pstride_[i]);
    for (std::size_t j = 0; j < label_dim_; ++j)
      cur_lab_[j] = static_cast<i64>(cur_lab_[j] + lstride_[j]);
    if (fit_maps_stride(open_[ci])) {
      bulk_absorb(open_[ci], cur_pt_, cur_lab_, n - 1 - k,
                  run_start_seq_ + n - 1);
      // The whole run landed in one chunk with no per-point routing —
      // a chain candidate (the next flush may arm on it).
      clean = (k == 0);
      break;
    }
  }
  chain_seed(n, clean ? open_[base_ci].id : 0, clean);
  run_stride_viol_ = false;
}

void Folder::add(std::span<const i64> point, std::span<const i64> label) {
  PP_CHECK(point.size() == in_dim_, "folder: point arity mismatch");
  PP_CHECK(label.size() == label_dim_, "folder: label arity mismatch");
  ++total_points_;
  ++seq_;

  if (!opts_.stride_runs) {
    // Reference point-at-a-time path (ablation knob): lexicographic check
    // in place against the previous point, then the routing steps.
    if (have_prev_ && !lex_greater(point, run_last_)) lex_ok_ = false;
    run_last_.assign(point.begin(), point.end());
    have_prev_ = true;
    route_point(point, label, seq_);
    return;
  }

  if (run_len_ == 0) {
    start_run(point, label);
    return;
  }
  if (run_len_ == 1) {
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
    bool positive = false;
    for (std::size_t i = 0; i < in_dim_; ++i) {
      if (pstride_[i] != 0) {
        positive = pstride_[i] > 0;
        break;
      }
    }
    run_stride_viol_ = !positive;
    set_run_last(point, label);
    run_len_ = 2;
    return;
  }
  // Run extension: constant point- AND label-stride.
  bool same = true;
  for (std::size_t i = 0; i < in_dim_; ++i) {
    if (static_cast<i128>(point[i]) - run_last_[i] != pstride_[i]) {
      same = false;
      break;
    }
  }
  if (same) {
    for (std::size_t j = 0; j < label_dim_; ++j) {
      if (static_cast<i128>(label[j]) - run_llast_[j] != lstride_[j]) {
        same = false;
        break;
      }
    }
  }
  if (same) {
    set_run_last(point, label);
    ++run_len_;
    return;
  }
  flush_run();
  if (!lex_greater(point, run_last_)) lex_ok_ = false;
  start_run(point, label);
}

void Folder::add_run(std::span<const i64> point, std::span<const i64> label,
                     std::span<const i64> pstride,
                     std::span<const i64> lstride, u64 n) {
  PP_CHECK(point.size() == in_dim_ && pstride.size() == in_dim_,
           "folder: run point arity mismatch");
  PP_CHECK(label.size() == label_dim_ && lstride.size() == label_dim_,
           "folder: run label arity mismatch");
  if (n == 0) return;
  if (n == 1) {  // stride meaningless for one point — plain scalar add
    add(point, label);
    return;
  }
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
    // O(d) fast paths: the whole call either extends the pending run or
    // becomes the new pending run — state identical to the scalar loop
    // (which would only bump counters and the run tail point by point),
    // without touching any chunk.
    arun_pt_.resize(in_dim_);
    arun_lab_.resize(label_dim_);
    for (std::size_t i = 0; i < in_dim_; ++i)
      arun_pt_[i] = static_cast<i64>(
          static_cast<i128>(point[i]) +
          static_cast<i128>(pstride[i]) * static_cast<i128>(n - 1));
    for (std::size_t j = 0; j < label_dim_; ++j)
      arun_lab_[j] = static_cast<i64>(
          static_cast<i128>(label[j]) +
          static_cast<i128>(lstride[j]) * static_cast<i128>(n - 1));
    auto strides_match = [&] {
      for (std::size_t i = 0; i < in_dim_; ++i)
        if (pstride_[i] != pstride[i]) return false;
      for (std::size_t j = 0; j < label_dim_; ++j)
        if (lstride_[j] != lstride[j]) return false;
      return true;
    };
    auto continues_pending = [&] {
      for (std::size_t i = 0; i < in_dim_; ++i)
        if (static_cast<i128>(point[i]) - run_last_[i] != pstride_[i])
          return false;
      for (std::size_t j = 0; j < label_dim_; ++j)
        if (static_cast<i128>(label[j]) - run_llast_[j] != lstride_[j])
          return false;
      return true;
    };
    auto install_strides = [&] {
      pstride_.resize(in_dim_);
      lstride_.resize(label_dim_);
      for (std::size_t i = 0; i < in_dim_; ++i) pstride_[i] = pstride[i];
      for (std::size_t j = 0; j < label_dim_; ++j) lstride_[j] = lstride[j];
      bool positive = false;
      for (std::size_t i = 0; i < in_dim_; ++i) {
        if (pstride_[i] != 0) {
          positive = pstride_[i] > 0;
          break;
        }
      }
      run_stride_viol_ = !positive;
    };
    if (run_len_ >= 2 && strides_match() && continues_pending()) {
      // Pure extension of the pending run.
      total_points_ += n;
      seq_ += n;
      run_len_ += n;
      set_run_last(arun_pt_, arun_lab_);
      return;
    }
    if (run_len_ == 1) {
      // The pending single point has no stride yet; when this run's base
      // continues it at the run's own stride, they merge into one run
      // (exactly what the scalar loop's stride-establishing add would do).
      bool cont = true;
      for (std::size_t i = 0; cont && i < in_dim_; ++i)
        cont = static_cast<i128>(point[i]) - run_last_[i] == pstride[i];
      for (std::size_t j = 0; cont && j < label_dim_; ++j)
        cont = static_cast<i128>(label[j]) - run_llast_[j] == lstride[j];
      if (cont) {
        install_strides();
        total_points_ += n;
        seq_ += n;
        run_len_ = 1 + n;
        set_run_last(arun_pt_, arun_lab_);
        return;
      }
    }
    if (run_len_ == 0) {
      // Fresh stream (or right after finish()): the run becomes the
      // pending run wholesale; no lexicographic reference exists yet.
      run_base_.assign(point.begin(), point.end());
      run_lbase_.assign(label.begin(), label.end());
      install_strides();
      total_points_ += n;
      seq_ += n;
      run_start_seq_ = seq_ - n + 1;
      run_len_ = n;
      set_run_last(arun_pt_, arun_lab_);
      return;
    }
    if (run_len_ >= 2) {
      // The run breaks the pending one: flush it (possibly into a chain),
      // apply the cross-run lexicographic check against its tail, and
      // install this run as the new pending run.
      flush_run();
      if (!lex_greater(point, run_last_)) lex_ok_ = false;
      run_base_.assign(point.begin(), point.end());
      run_lbase_.assign(label.begin(), label.end());
      install_strides();
      total_points_ += n;
      seq_ += n;
      run_start_seq_ = seq_ - n + 1;
      run_len_ = n;
      set_run_last(arun_pt_, arun_lab_);
      return;
    }
    // run_len_ == 1 and the base does not continue it: fall through to
    // the scalar loop (the pending point still needs its stride decided
    // by add()'s break-or-establish logic).
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

  const i128 cap = static_cast<i128>(opts_.count_cap);
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
  const i128 cap = static_cast<i128>(opts_.count_cap);
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
  return dom.count_points(std::min<u64>(opts_.count_cap, c.points));
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
    std::vector<i64> coeffs(in_dim_);
    for (std::size_t i = 0; i < in_dim_; ++i) {
      if (!representable(chunk.fit[j][i])) {
        label_ok = false;
        break;
      }
      coeffs[i] = narrow_i64(chunk.fit[j][i].num());
    }
    if (!label_ok || !representable(chunk.fit[j][in_dim_])) {
      label_ok = false;
      break;
    }
    outs.emplace_back(std::move(coeffs),
                      narrow_i64(chunk.fit[j][in_dim_].num()));
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

FoldCache::Key Folder::cache_key(const Chunk& c) const {
  // Canonical form: every input build_piece() reads, in a fixed order.
  // The template rows are a function of (in_dim, octagon), so encoding
  // the bounds in rows_ order covers the sorted-constraint canonical form.
  FoldCache::Key key;
  key.reserve(6 + 4 * c.bnd.size() + 4 * label_dim_ * (in_dim_ + 1));
  auto push128 = [&key](i128 v) {
    key.push_back(static_cast<u64>(static_cast<unsigned __int128>(v)));
    key.push_back(static_cast<u64>(static_cast<unsigned __int128>(v) >> 64));
  };
  key.push_back(static_cast<u64>(in_dim_));
  key.push_back(static_cast<u64>(label_dim_));
  key.push_back(opts_.use_octagon ? 1 : 0);
  key.push_back(opts_.count_cap);
  key.push_back(lex_ok_ ? 1 : 0);
  key.push_back(c.points);
  for (const Bnd& b : c.bnd) {
    push128(b.min);
    push128(b.max);
  }
  for (const auto& row : c.fit) {
    for (const Rat& r : row) {
      push128(r.num());
      push128(r.den());
    }
  }
  return key;
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

  if (opts_.cache != nullptr) {
    FoldCache::Key key = cache_key(chunk);
    if (auto hit = opts_.cache->find(key)) {
      result_.add_piece(*hit);
      return;
    }
    poly::Piece piece = build_piece(chunk);
    opts_.cache->insert(std::move(key),
                        std::make_shared<const poly::Piece>(piece));
    result_.add_piece(std::move(piece));
    return;
  }
  result_.add_piece(build_piece(chunk));
}

poly::PolySet Folder::finish() {
  flush_run();
  chain_finalize();  // flush_run may have deferred the final run
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
