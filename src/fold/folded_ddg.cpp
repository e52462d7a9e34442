#include "fold/folded_ddg.hpp"

#include <algorithm>

namespace pp::fold {

bool scev_candidate(ir::Op op) {
  switch (op) {
    case ir::Op::kConst:
    case ir::Op::kMov:
    case ir::Op::kAdd:
    case ir::Op::kSub:
    case ir::Op::kMul:
    case ir::Op::kAddI:
    case ir::Op::kMulI:
    case ir::Op::kShl:
    case ir::Op::kCmpEq:
    case ir::Op::kCmpNe:
    case ir::Op::kCmpLt:
    case ir::Op::kCmpLe:
    case ir::Op::kCmpGt:
    case ir::Op::kCmpGe:
      return true;
    default:
      return false;
  }
}

const poly::AffineMap* FoldedStatement::affine_access() const {
  if (addresses.pieces().size() != 1) return nullptr;
  const poly::Piece& p = addresses.pieces()[0];
  if (!p.exact) return nullptr;
  return &p.label_fn;
}

std::optional<i64> FoldedStatement::stride_along(std::size_t dim) const {
  const poly::AffineMap* fn = affine_access();
  if (!fn || fn->out_dim() != 1) return std::nullopt;
  if (dim >= fn->in_dim()) return std::nullopt;
  return fn->output(0).coeff(dim);
}

poly::PolySet FoldedDep::must_relation() const {
  poly::PolySet out(relation.dim());
  for (const auto& p : relation.pieces())
    if (p.exact) out.add_piece(p);
  return out;
}

std::vector<bool> FoldedProgram::affine_flags(bool strict) const {
  // Statements incident to an inexact (or, in strict mode, piecewise)
  // dependence edge lose affinity too.
  std::vector<bool> tainted(statements.size(), false);
  for (const auto& d : deps) {
    bool bad = !d.relation.all_exact() ||
               (strict && d.relation.pieces().size() > 1);
    if (bad) {
      tainted[static_cast<std::size_t>(d.src)] = true;
      tainted[static_cast<std::size_t>(d.dst)] = true;
    }
  }
  std::vector<bool> flags(statements.size(), false);
  for (const auto& s : statements) {
    if (!s.domain_exact) continue;
    if (strict && s.domain.pieces().size() > 1) continue;
    if (tainted[static_cast<std::size_t>(s.meta.id)]) continue;
    if (s.meta.is_memory) {
      // strict: one exact affine access function; extended: an exact
      // piecewise-affine access also counts.
      if (strict && s.affine_access() == nullptr) continue;
      if (!strict && (s.addresses.empty() || !s.addresses.all_exact()))
        continue;
    }
    flags[static_cast<std::size_t>(s.meta.id)] = true;
  }
  return flags;
}

u64 FoldedProgram::fully_affine_ops(bool strict) const {
  std::vector<bool> flags = affine_flags(strict);
  u64 n = 0;
  for (const auto& s : statements)
    if (flags[static_cast<std::size_t>(s.meta.id)]) n += s.meta.executions;
  return n;
}

FoldingSink::FoldingSink(FolderOptions opts) : opts_(opts) {}

void FoldingSink::mark_degraded(const std::set<int>& stmt_ids) {
  degraded_.insert(stmt_ids.begin(), stmt_ids.end());
}

namespace {

/// Force every piece of a folded set over-approximate: the stream behind
/// it is known incomplete, so neither the domains nor the label fits are
/// certified — even when the partial points happened to fold exactly.
void taint_pieces(poly::PolySet& set) {
  for (auto& p : set.pieces()) {
    p.exact = false;
    p.label_exact = false;
  }
}

}  // namespace

FoldingSink::StmtStreams& FoldingSink::streams_of(int stmt_id) {
  PP_CHECK(stmt_id >= 0, "folding sink: negative statement id");
  const auto i = static_cast<std::size_t>(stmt_id);
  if (i >= stmts_.size()) stmts_.resize(i + 1);
  return stmts_[i];
}

void FoldingSink::on_instruction(const ddg::Statement& s,
                                 std::span<const i64> coords, bool has_value,
                                 i64 value, bool has_address, i64 address) {
  auto& streams = streams_of(s.id);
  std::size_t d = coords.size();
  if (!streams.domain)
    streams.domain = std::make_unique<Folder>(d, 0, opts_);
  streams.domain->add(coords, {});
  if (has_value && scev_candidate(s.op)) {
    if (!streams.value)
      streams.value = std::make_unique<Folder>(d, 1, opts_);
    i64 lab[1] = {value};
    streams.value->add(coords, lab);
  }
  if (has_address) {
    if (!streams.address)
      streams.address = std::make_unique<Folder>(d, 1, opts_);
    i64 lab[1] = {address};
    streams.address->add(coords, lab);
  }
}

void FoldingSink::on_dependence(ddg::DepKind kind, int src_stmt,
                                std::span<const i64> src_coords, int dst_stmt,
                                std::span<const i64> dst_coords, int slot) {
  DepKey key{src_stmt, dst_stmt, kind, slot};
  auto& f = deps_[key];
  if (!f)
    f = std::make_unique<Folder>(dst_coords.size(), src_coords.size(), opts_);
  f->add(dst_coords, src_coords);
}

namespace {

inline i64 wadd(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b));
}

inline void advance(std::vector<i64>& v, std::span<const i64> stride) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = wadd(v[i], stride[i]);
}

}  // namespace

void FoldingSink::on_instruction_run(const InstrRun& r) {
  if (r.n == 0) return;
  const ddg::Statement& s = *r.stmt;
  const bool fold_value = r.has_value && scev_candidate(s.op);
  auto& streams = streams_of(s.id);
  const std::size_t d = r.coords.size();
  if (!streams.domain)
    streams.domain = std::make_unique<Folder>(d, 0, opts_);
  streams.domain->add_run(r.coords, {}, r.coord_stride, {}, r.n);
  if (fold_value) {
    if (!streams.value)
      streams.value = std::make_unique<Folder>(d, 1, opts_);
    if (r.value_affine) {
      const i64 lab[1] = {r.value};
      const i64 ls[1] = {r.value_stride};
      streams.value->add_run(r.coords, lab, r.coord_stride, ls, r.n);
    } else {
      std::vector<i64> coords(r.coords.begin(), r.coords.end());
      for (u64 t = 0; t < r.n; ++t) {
        const i64 lab[1] = {r.values[t]};
        streams.value->add(coords, lab);
        advance(coords, r.coord_stride);
      }
    }
  }
  if (r.has_address) {
    if (!streams.address)
      streams.address = std::make_unique<Folder>(d, 1, opts_);
    if (r.address_affine) {
      const i64 lab[1] = {r.address};
      const i64 ls[1] = {r.address_stride};
      streams.address->add_run(r.coords, lab, r.coord_stride, ls, r.n);
    } else {
      std::vector<i64> coords(r.coords.begin(), r.coords.end());
      for (u64 t = 0; t < r.n; ++t) {
        const i64 lab[1] = {r.addresses[t]};
        streams.address->add(coords, lab);
        advance(coords, r.coord_stride);
      }
    }
  }
}

void FoldingSink::on_dependence_run(const DepRun& r) {
  if (r.n == 0) return;
  DepKey key{r.src_stmt, r.dst_stmt, r.kind, r.slot};
  auto& f = deps_[key];
  if (!f)
    f = std::make_unique<Folder>(r.dst_coords.size(), r.src_coords.size(),
                                 opts_);
  f->add_run(r.dst_coords, r.src_coords, r.dst_stride, r.src_stride, r.n);
}

FoldedProgram FoldingSink::finalize(const ddg::StatementTable& table) {
  obs::Span finalize_span(obs_, "fold:finalize");
  FoldedProgram prog;
  prog.statements.reserve(table.size());
  prog.total_dynamic_ops = table.total_executions();

  std::vector<DepKey> keys;
  keys.reserve(deps_.size());
  for (const auto& [key, _] : deps_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());  // deterministic piece order

  // Cancellation is observed before each statement and edge (structural
  // order): once the token fires, every later statement/edge degrades to
  // an over-approximation. The chaos kDeadlineMidFold hook fires the token
  // AT a seeded position, so the degraded suffix is reproducible.
  std::size_t pos = 0;
  bool cancel_noted = false;
  auto checkpoint = [&]() -> bool {
    if (chaos_deadline_at_ != 0 && pos == chaos_deadline_at_ &&
        cancel_ != nullptr)
      cancel_->expire();
    ++pos;
    if (cancel_ == nullptr || !cancel_->poll()) return false;
    if (!cancel_noted) {
      cancel_noted = true;
      if (diag_ != nullptr)
        diag_->warn(support::Stage::kFold,
                    std::string("job cancelled (") + cancel_->reason_name() +
                        ") — remaining statements and dependence edges "
                        "degraded to over-approximations");
    }
    return true;
  };

  for (const auto& meta : table.all()) {
    FoldedStatement fs;
    fs.meta = meta;
    bool degraded = degraded_.count(meta.id) != 0;
    if (checkpoint()) {
      // Drop the folded streams; the statement survives as a degraded
      // shell with its dynamic counters intact.
      degraded = true;
    } else if (static_cast<std::size_t>(meta.id) < stmts_.size()) {
      auto& streams = stmts_[static_cast<std::size_t>(meta.id)];
      // Per-stream fault isolation: a folder fault loses this statement's
      // folds, not the whole program.
      try {
        if (streams.domain) fs.domain = streams.domain->finish();
        if (streams.value) fs.values = streams.value->finish();
        if (streams.address) fs.addresses = streams.address->finish();
      } catch (const Error& e) {
        degraded = true;
        if (diag_ != nullptr)
          diag_->error(support::Stage::kFold,
                       std::string("statement fold failed: ") + e.what(),
                       meta.id);
      }
    }
    // Folder-piece budget, charged HERE in table order, so exhaustion
    // always lands on the same statement.
    if (budget_ != nullptr && budget_->folder_pieces != 0) {
      std::size_t pieces = fs.domain.pieces().size() +
                           fs.values.pieces().size() +
                           fs.addresses.pieces().size();
      if (budget_->pieces_exceeded(budget_->charge_pieces(pieces)) &&
          !degraded) {
        degraded = true;
        if (diag_ != nullptr)
          diag_->warn(support::Stage::kFold,
                      "folder piece budget exhausted — statement degraded "
                      "to over-approximation",
                      meta.id);
      }
    }
    fs.domain_exact = !fs.domain.empty() && fs.domain.all_exact();
    // SCEV recognition, phase 1 (value shape): the produced values of a
    // bookkeeping instruction fold into at most two exact affine pieces
    // (loop-exit compares are affine except on the final iteration, hence
    // two pieces; reductions fragment into many pieces and never qualify).
    fs.is_scev = scev_candidate(meta.op) && !fs.values.empty() &&
                 fs.values.pieces().size() <= 2 && fs.values.all_exact() &&
                 fs.domain_exact &&
                 fs.values.total_observed() == meta.executions;
    if (degraded) {
      // Demotion happens HERE, before chain-rule demotion and SCEV
      // pruning: a truncated stream's partial points can fold exactly and
      // would otherwise certify the statement as affine bookkeeping.
      degraded_.insert(meta.id);
      fs.degraded = true;
      fs.domain_exact = false;
      fs.is_scev = false;
      taint_pieces(fs.domain);
      taint_pieces(fs.values);
      taint_pieces(fs.addresses);
      ++prog.degraded_statements;
    }
    prog.statements.push_back(std::move(fs));
  }

  // SCEV phase 2 (chain rule): a compiler's scalar evolution is a function
  // of canonical induction variables only — it cannot see through loads.
  // Values that *happen* to be affine but are computed from non-SCEV
  // producers (e.g. an address derived from a loaded row pointer) must
  // keep their dependences, or Table 2's I1->I2 pointer chain would
  // vanish. Demote to fixpoint along register-flow edges.
  {
    std::vector<std::pair<int, int>> reg_edges;
    for (const DepKey& key : keys) {
      if (std::get<2>(key) == ddg::DepKind::kRegFlow)
        reg_edges.emplace_back(std::get<0>(key), std::get<1>(key));
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [src, dst] : reg_edges) {
        auto& d = prog.statements[static_cast<std::size_t>(dst)];
        const auto& s = prog.statements[static_cast<std::size_t>(src)];
        if (d.is_scev && !s.is_scev) {
          d.is_scev = false;
          changed = true;
        }
      }
    }
  }

  // Fold dependences; drop edges touching SCEV statements (their whole
  // computation chains are bookkeeping — keeping them "greatly and
  // unnecessarily constrains possible code transformations", §5).
  // Merging keeps the dependence KIND in the key: a reg-flow and a mem-flow
  // edge between the same statement pair stay separate edges, so consumers
  // (scalar-expansion hints, the soundness oracle) see faithful kinds.
  std::map<std::tuple<int, int, ddg::DepKind>, FoldedDep> merged;
  // Builds the maximal over-approximation of a faulted edge: one inexact
  // universe piece carrying the observed instance count, so the edge (and
  // its weight) survives for the scheduler while %Aff accounting sees it
  // as inexact.
  auto universe_fallback = [](std::size_t in_dim, std::size_t label_dim,
                              u64 observed) {
    poly::PolySet rel(in_dim);
    poly::Piece p;
    p.domain = poly::Polyhedron::universe(in_dim);
    p.label_fn = poly::AffineMap(
        in_dim,
        std::vector<poly::AffineExpr>(label_dim, poly::AffineExpr(in_dim)));
    p.exact = false;
    p.label_exact = false;
    p.observed_points = observed;
    rel.add_piece(std::move(p));
    return rel;
  };
  for (const DepKey& key : keys) {
    auto [src, dst, kind, slot] = key;
    (void)slot;
    poly::PolySet rel;
    Folder* folder = deps_.at(key).get();
    if (checkpoint()) {
      // Cancelled: the edge survives as the maximal over-approximation so
      // the scheduler still sees it (sound, never silently dropped).
      rel = universe_fallback(folder->in_dim(), folder->label_dim(),
                              folder->points_seen());
    } else {
      try {
        rel = folder->finish();
      } catch (const Error& e) {
        rel = universe_fallback(folder->in_dim(), folder->label_dim(),
                                folder->points_seen());
        if (diag_ != nullptr)
          diag_->error(support::Stage::kFold,
                       std::string("dependence fold failed (S") +
                           std::to_string(src) + " -> S" + std::to_string(dst) +
                           "): " + e.what());
      }
    }
    if (prog.statements[static_cast<std::size_t>(src)].is_scev ||
        prog.statements[static_cast<std::size_t>(dst)].is_scev) {
      ++prog.pruned_dep_edges;
      prog.pruned_dep_instances += rel.total_observed();
      continue;
    }
    // Edges incident to a degraded statement carry relations fitted on an
    // incomplete stream: force them inexact so affine_flags() taints both
    // endpoints and must_relation() drops them.
    if (degraded_.count(src) != 0 || degraded_.count(dst) != 0)
      taint_pieces(rel);
    auto mk = std::make_tuple(src, dst, kind);
    auto it = merged.find(mk);
    if (it == merged.end()) {
      FoldedDep fd;
      fd.src = src;
      fd.dst = dst;
      fd.kind = kind;
      fd.relation = std::move(rel);
      merged.emplace(mk, std::move(fd));
    } else {
      for (auto& p : rel.pieces())
        it->second.relation.add_piece(std::move(p));
    }
  }
  prog.deps.reserve(merged.size());
  for (auto& [_, fd] : merged) prog.deps.push_back(std::move(fd));

  if (obs_ != nullptr && obs_->enabled()) {
    // Stream/piece finals. Values are properties of the folded program,
    // so they survive the --stable report section.
    i64 pieces = 0;
    for (const auto& s : prog.statements)
      pieces += static_cast<i64>(s.domain.pieces().size() +
                                 s.values.pieces().size() +
                                 s.addresses.pieces().size());
    for (const auto& d : prog.deps)
      pieces += static_cast<i64>(d.relation.pieces().size());
    obs_->set("fold.pieces", pieces);
    i64 stmt_streams = 0;
    u64 refits = 0, rat_fallbacks = 0, run_flushes = 0, flushed_points = 0;
    auto tally = [&](const std::unique_ptr<Folder>& f) {
      if (!f) return;
      refits += f->refits();
      rat_fallbacks += f->rat_fallbacks();
      run_flushes += f->run_flushes();
      flushed_points += f->flushed_points();
    };
    for (const auto& streams : stmts_) {
      stmt_streams += streams.domain != nullptr;
      tally(streams.domain);
      tally(streams.value);
      tally(streams.address);
    }
    for (const auto& [_, f] : deps_) tally(f);
    obs_->set("fold.stmt_streams", stmt_streams);
    obs_->set("fold.dep_streams", static_cast<i64>(keys.size()));
    obs_->set("fold.dep_edges", static_cast<i64>(prog.deps.size()));
    obs_->set("fold.pruned_dep_edges",
              static_cast<i64>(prog.pruned_dep_edges));
    obs_->set("fold.degraded_statements",
              static_cast<i64>(prog.degraded_statements));
    // Work the folder did, not a property of the folded program (stride
    // runs on/off change it): kTiming keeps it out of stable reports.
    obs_->set("fold.refits", static_cast<i64>(refits),
              obs::Stability::kTiming);
    obs_->set("fold.rat_fallbacks", static_cast<i64>(rat_fallbacks),
              obs::Stability::kTiming);
    obs_->set("fold.run_flushes", static_cast<i64>(run_flushes),
              obs::Stability::kTiming);
    obs_->set("fold.flushed_points", static_cast<i64>(flushed_points),
              obs::Stability::kTiming);
  }
  return prog;
}

}  // namespace pp::fold
