#include "verify/oracle.hpp"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "verify/dataflow.hpp"

namespace pp::verify {

using poly::AffineExpr;
using poly::LpStatus;
using poly::Polyhedron;

// ---------------------------------------------------------------------------
// Part (a): dynamic ⊆ static.

namespace {

/// Per-function machinery for the containment check, built lazily: most
/// modules execute only a few of their functions. The static analysis is
/// borrowed from the report's shared ModuleDeps.
struct FuncOracle {
  BlockGraph graph;
  ReachingDefs reaching;
  const exact::ExactDeps& ex;  ///< carries the MayDepSet (ex.may()) too
  std::set<ir::Reg> call_results;  ///< dsts of kCall (value pass-through)

  FuncOracle(const ir::Function& f, const exact::ExactDeps& deps)
      : graph(f), reaching(f, graph), ex(deps) {
    for (const auto& bb : f.blocks)
      for (const auto& in : bb.instrs)
        if (in.op == ir::Op::kCall && ir::writes_reg(in))
          call_results.insert(in.dst);
  }
};

bool in_range(const ir::Function& f, const vm::CodeRef& r) {
  if (r.block < 0 || static_cast<std::size_t>(r.block) >= f.blocks.size())
    return false;
  const auto& bb = f.blocks[static_cast<std::size_t>(r.block)];
  return r.instr >= 0 && static_cast<std::size_t>(r.instr) < bb.instrs.size();
}

/// Can the register value `dst_ref` read have been produced by `src_ref`,
/// as far as the static CFG can tell? The DDG routes values through calls
/// (callee params inherit caller producers, returns flow into the call
/// dst), so parameter registers and call-result registers are wildcards —
/// their producer may legitimately be any same-function instruction.
bool reg_flow_plausible(const ir::Function& f, const FuncOracle& fo,
                        const vm::CodeRef& src_ref, const ir::Instr& src,
                        const vm::CodeRef& dst_ref, const ir::Instr& dst) {
  for (ir::Reg r : ir::read_regs(dst)) {
    if (r < f.num_args) return true;            // param pass-through
    if (fo.call_results.count(r)) return true;  // value through a call
    if (ir::writes_reg(src) && src.dst == r &&
        fo.reaching.def_reaches(src_ref.block, src_ref.instr, dst_ref.block,
                                dst_ref.instr))
      return true;
  }
  return false;
}

}  // namespace

CoverageReport check_dynamic_coverage(const ir::Module& m,
                                      const fold::FoldedProgram& prog,
                                      const exact::ModuleDeps& deps) {
  CoverageReport rep;
  std::map<int, std::unique_ptr<FuncOracle>> cache;
  auto oracle_for = [&](int func) -> FuncOracle& {
    const auto idx = static_cast<std::size_t>(func);
    auto& slot = cache[func];
    if (!slot)
      slot = std::make_unique<FuncOracle>(m.functions[idx], *deps[idx]);
    return *slot;
  };

  for (std::size_t i = 0; i < prog.deps.size(); ++i) {
    const fold::FoldedDep& d = prog.deps[i];
    const vm::CodeRef s = prog.stmt(d.src).meta.code;
    const vm::CodeRef t = prog.stmt(d.dst).meta.code;
    // Interprocedural edges (value plumbing through calls, cross-function
    // memory reuse) have no intraprocedural static counterpart.
    if (s.func != t.func || s.func < 0 ||
        static_cast<std::size_t>(s.func) >= m.functions.size()) {
      ++rep.skipped;
      continue;
    }
    const ir::Function& f = m.functions[static_cast<std::size_t>(s.func)];
    if (!in_range(f, s) || !in_range(f, t)) {
      ++rep.skipped;
      continue;
    }
    FuncOracle& fo = oracle_for(s.func);
    const ir::Instr& si =
        f.blocks[static_cast<std::size_t>(s.block)]
            .instrs[static_cast<std::size_t>(s.instr)];
    const ir::Instr& ti =
        f.blocks[static_cast<std::size_t>(t.block)]
            .instrs[static_cast<std::size_t>(t.instr)];

    bool covered = true;
    bool exact_refuted = false;
    if (d.kind == ddg::DepKind::kRegFlow) {
      covered = reg_flow_plausible(f, fo, s, si, t, ti);
      ++rep.checked;
    } else {
      // Memory kinds: only pairs statican fully models carry a verdict.
      const MayDepSet& may = fo.ex.may();
      if (!may.modeled(s.block, s.instr) || !may.modeled(t.block, t.instr)) {
        ++rep.skipped;
        continue;
      }
      covered = may.may_depend(s.block, s.instr, t.block, t.instr);
      ++rep.checked;
      if (covered) {
        // Precision tier (dynamic ⊆ exact): a may-covered edge can still
        // be refuted by the Omega test — kIndependent is a theorem that no
        // two instances of the sites share an address, so an observed edge
        // means one of the two analyses is wrong.
        ++rep.exact_checked;
        if (fo.ex.pair_verdict(s.block, s.instr, t.block, t.instr) ==
            exact::PairVerdict::kIndependent) {
          covered = false;
          exact_refuted = true;
        }
      }
    }
    if (!covered) {
      CoverageViolation v;
      v.dep_index = static_cast<int>(i);
      v.src_stmt = d.src;
      v.dst_stmt = d.dst;
      v.kind = d.kind;
      std::ostringstream os;
      os << ddg::dep_kind_name(d.kind) << " edge s" << d.src << " -> s"
         << d.dst << " (" << f.name << " b" << s.block << ":i" << s.instr
         << " -> b" << t.block << ":i" << t.instr
         << ") observed dynamically but "
         << (exact_refuted ? "proven independent by the exact test"
                           : "statically impossible");
      v.message = os.str();
      rep.violations.push_back(std::move(v));
    }
  }
  return rep;
}

std::string CoverageReport::str() const {
  std::ostringstream os;
  os << "coverage: " << (ok() ? "ok" : "VIOLATED") << " (" << checked
     << " edges checked, " << exact_checked << " exact-re-checked, "
     << skipped << " skipped";
  if (!ok()) os << ", " << violations.size() << " uncovered";
  os << ")";
  for (const auto& v : violations) os << "\n  " << v.message;
  return os.str();
}

// ---------------------------------------------------------------------------
// Part (c): exact ⊆ may-dep — the static precision tier.

PrecisionReport check_precision_tier(const ir::Module& m,
                                     const exact::ModuleDeps& deps) {
  PrecisionReport rep;
  // Sweep in program order: violation order is deterministic.
  for (const ir::Function& f : m.functions) {
    const std::optional<exact::ExactDeps>& ex =
        deps[static_cast<std::size_t>(f.id)];
    if (!ex) continue;
    const exact::ExactDeps::Summary s = ex->summary();
    rep.pairs_checked += s.modeled_pairs;
    rep.refined += s.refined;
    for (const auto& [i, j] : s.may_exact_mismatches) {
      const statican::AccessInfo& x = ex->model().accesses[i];
      const statican::AccessInfo& y = ex->model().accesses[j];
      PrecisionViolation pv;
      pv.func = f.id;
      pv.src_block = x.block;
      pv.src_instr = x.instr;
      pv.dst_block = y.block;
      pv.dst_instr = y.instr;
      std::ostringstream os;
      os << f.name << " b" << x.block << ":i" << x.instr << " vs b" << y.block
         << ":i" << y.instr
         << ": may-tester proves the addresses disjoint but the exact "
            "test finds an integer instance pair touching the same word";
      pv.message = os.str();
      rep.violations.push_back(std::move(pv));
    }
  }
  return rep;
}

std::string PrecisionReport::str() const {
  std::ostringstream os;
  os << "precision: " << (ok() ? "ok" : "VIOLATED") << " (" << pairs_checked
     << " pairs checked, " << refined << " refined by the exact tier";
  if (!ok()) os << ", " << violations.size() << " mismatches";
  os << ")";
  for (const auto& v : violations) os << "\n  " << v.message;
  return os.str();
}

// ---------------------------------------------------------------------------
// Part (b): parallel / permutable claims vs. the must-dependences.

namespace {

/// Loop depth shared by two statements: matching context-part prefix,
/// capped by both depths. Dependences are only enforced on the shared
/// prefix (beyond it, statement order satisfies them).
std::size_t shared_depth(const ddg::Statement& a, const ddg::Statement& b) {
  std::size_t n = std::min(a.context.parts.size(), b.context.parts.size());
  std::size_t k = 0;
  while (k < n && a.context.parts[k] == b.context.parts[k]) ++k;
  return std::min({k, a.depth, b.depth});
}

constexpr u64 kEnumCap = 4096;  ///< instance budget per piece

struct ClaimChecker {
  const fold::FoldedProgram& prog;
  ClaimReport& rep;
  std::vector<std::set<int>>& contradicted;  ///< per group: level indices
  std::set<std::tuple<int, int, int, int>> seen;  ///< (grp,lvl,dep,kind) dedup

  void witness(ClaimWitness::Kind kind, int grp, int lvl, int dep_idx,
               const fold::FoldedDep& d, const std::string& detail) {
    if (!seen.insert({grp, lvl, dep_idx, static_cast<int>(kind)}).second)
      return;
    ClaimWitness w;
    w.kind = kind;
    w.group = grp;
    w.level = lvl;
    w.src_stmt = d.src;
    w.dst_stmt = d.dst;
    std::ostringstream os;
    switch (kind) {
      case ClaimWitness::Kind::kParallelContradicted:
        os << "parallel claim contradicted";
        break;
      case ClaimWitness::Kind::kIllegalLevel:
        os << "negative dependence distance";
        break;
      case ClaimWitness::Kind::kBandViolation:
        os << "permutable band violated";
        break;
    }
    os << " at group " << grp << " level " << lvl << " by "
       << ddg::dep_kind_name(d.kind) << " s" << d.src << " -> s" << d.dst
       << ": " << detail;
    w.message = os.str();
    rep.witnesses.push_back(std::move(w));
    if (kind == ClaimWitness::Kind::kParallelContradicted)
      contradicted[static_cast<std::size_t>(grp)].insert(lvl);
  }

  /// Schedule distance of `level` for one enumerated instance.
  static i128 distance(const scheduler::Level& level, std::size_t shared,
                       std::span<const i64> t, std::span<const i128> s) {
    i128 dist = 0;
    std::size_t n = std::min(shared, level.row.size());
    for (std::size_t j = 0; j < n; ++j)
      dist += static_cast<i128>(level.row[j]) *
              (static_cast<i128>(t[j]) - s[j]);
    return dist;
  }

  /// Instance-exact walk over an enumerable piece.
  void check_enumerated(const std::vector<std::vector<i64>>& pts,
                        const poly::Piece& piece,
                        const scheduler::GroupSchedule& g, int grp,
                        std::size_t shared, int dep_idx,
                        const fold::FoldedDep& d) {
    for (const auto& t : pts) {
      ++rep.instances_checked;
      std::vector<i128> s = piece.label_fn.eval(t);
      bool satisfied = false;
      bool band_satisfied = false;
      for (std::size_t li = 0; li < g.levels.size(); ++li) {
        const scheduler::Level& lv = g.levels[li];
        if (li == 0 || lv.new_band) band_satisfied = satisfied;
        i128 dist = distance(lv, shared, t, s);
        std::ostringstream det;
        auto detail = [&]() {
          det << "distance " << static_cast<long long>(dist)
              << " at instance (";
          for (std::size_t j = 0; j < t.size(); ++j)
            det << (j ? "," : "") << t[j];
          det << ")";
          return det.str();
        };
        if (!satisfied && dist < 0)
          witness(ClaimWitness::Kind::kIllegalLevel, grp,
                  static_cast<int>(li), dep_idx, d, detail());
        else if (!band_satisfied && dist < 0)
          witness(ClaimWitness::Kind::kBandViolation, grp,
                  static_cast<int>(li), dep_idx, d, detail());
        if (lv.parallel && !satisfied && dist != 0)
          witness(ClaimWitness::Kind::kParallelContradicted, grp,
                  static_cast<int>(li), dep_idx, d, detail());
        if (dist > 0) satisfied = true;
      }
    }
  }

  /// The schedule distance of `level` as an affine form over the piece
  /// domain (source instance = label_fn image of the target instance).
  static AffineExpr distance_expr(const poly::Piece& piece,
                                  const scheduler::Level& lv,
                                  std::size_t shared) {
    std::size_t dim = piece.domain.dim();
    AffineExpr dist(dim);
    std::size_t n = std::min(shared, lv.row.size());
    for (std::size_t j = 0; j < n; ++j) {
      if (lv.row[j] == 0) continue;
      dist = dist + (AffineExpr::var(dim, j) - piece.label_fn.output(j)) *
                        lv.row[j];
    }
    return dist;
  }

  /// Exact walk for pieces too large to enumerate: at each level, the
  /// Omega core decides whether any still-unsatisfied INTEGER instance has
  /// a negative (or, for a parallel claim, nonzero) distance — the same
  /// instances the enumerated walk would have visited, so every witness is
  /// real and every pass is a theorem. Returns false as soon as a query
  /// hits the effort cap; the caller then re-walks with the rational LP
  /// bounds (the (grp,lvl,dep,kind) dedup makes the double walk safe).
  bool check_exact(const poly::Piece& piece,
                   const scheduler::GroupSchedule& g, int grp,
                   std::size_t shared, int dep_idx,
                   const fold::FoldedDep& d) {
    Polyhedron region = piece.domain;       // unsatisfied instances
    Polyhedron band_region = piece.domain;  // unsatisfied at band start
    for (std::size_t li = 0; li < g.levels.size(); ++li) {
      const scheduler::Level& lv = g.levels[li];
      AffineExpr dist = distance_expr(piece, lv, shared);
      if (li == 0 || lv.new_band) band_region = region;
      auto test = [&](const Polyhedron& base, bool negative) {
        Polyhedron q = base;
        q.add_ge0(negative ? dist * -1 + (-1) : dist + (-1));
        return poly::integer_feasible(q);
      };
      const poly::Feas neg = test(region, /*negative=*/true);
      if (neg == poly::Feas::kUnknown) return false;
      if (neg == poly::Feas::kFeasible) {
        witness(ClaimWitness::Kind::kIllegalLevel, grp, static_cast<int>(li),
                dep_idx, d, "integer instance with negative distance");
      } else {
        const poly::Feas bneg = test(band_region, /*negative=*/true);
        if (bneg == poly::Feas::kUnknown) return false;
        if (bneg == poly::Feas::kFeasible)
          witness(ClaimWitness::Kind::kBandViolation, grp,
                  static_cast<int>(li), dep_idx, d,
                  "integer in-band instance with negative distance");
      }
      if (lv.parallel) {
        const poly::Feas pos = test(region, /*negative=*/false);
        if (pos == poly::Feas::kUnknown) return false;
        if (pos == poly::Feas::kFeasible || neg == poly::Feas::kFeasible)
          witness(ClaimWitness::Kind::kParallelContradicted, grp,
                  static_cast<int>(li), dep_idx, d,
                  "integer instance with nonzero distance");
      }
      region.add_eq0(dist);
    }
    return true;
  }

  /// The rational level walk, shared by the proof that lets an enumerable
  /// piece skip enumeration and by the LP fallback for capped pieces. It
  /// keeps the polyhedron of still-unsatisfied instances (distance pinned
  /// to zero at every earlier level) and its copy at the band start, and
  /// bounds each level's distance over both. Rational bounds are
  /// conservative: a level is only cleared when the relaxation proves
  /// min ≥ 0 (and, for a parallel claim, max ≤ 0). `flag(kind, level,
  /// detail)` is called on every violation the bounds cannot rule out, and
  /// the walk stops as soon as it returns false. Returns true when nothing
  /// was flagged — a theorem that no instance of the piece is a witness.
  template <typename Flag>
  static bool rational_walk(const poly::Piece& piece,
                            const scheduler::GroupSchedule& g,
                            std::size_t shared, const Flag& flag) {
    auto below_zero = [](const poly::BoundResult& b) {
      return b.status == LpStatus::kUnbounded ||
             (b.status == LpStatus::kOptimal && b.value.sign() < 0);
    };
    Polyhedron region = piece.domain;       // unsatisfied instances
    Polyhedron band_region = piece.domain;  // unsatisfied at band start
    bool region_empty = false;
    bool clean = true;
    for (std::size_t li = 0; li < g.levels.size(); ++li) {
      const scheduler::Level& lv = g.levels[li];
      const bool band_start = li == 0 || lv.new_band;
      if (band_start) {
        if (region_empty) break;  // nothing left unsatisfied, in any band
        band_region = region;
      }
      AffineExpr dist = distance_expr(piece, lv, shared);
      auto report = [&](ClaimWitness::Kind kind, const char* detail) {
        clean = false;
        return flag(kind, static_cast<int>(li), detail);
      };
      bool can_neg = false;
      if (!region_empty) {
        auto mn = region.minimize(dist);
        region_empty = mn.status == LpStatus::kInfeasible;
        can_neg = below_zero(mn);
      }
      if (can_neg) {
        if (!report(ClaimWitness::Kind::kIllegalLevel,
                    "rational minimum below zero"))
          return false;
      } else if (!band_start && below_zero(band_region.minimize(dist))) {
        // At a band start the band region IS the unsatisfied region, just
        // bounded. Later in the band it is checked even once the
        // unsatisfied region is empty: instances satisfied earlier in
        // this band still constrain it.
        if (!report(ClaimWitness::Kind::kBandViolation,
                    "rational in-band minimum below zero"))
          return false;
      }
      if (lv.parallel && !region_empty) {
        auto mx = region.maximize(dist);
        bool nonzero =
            can_neg || mx.status == LpStatus::kUnbounded ||
            (mx.status == LpStatus::kOptimal && mx.value.sign() > 0);
        if (nonzero && !report(ClaimWitness::Kind::kParallelContradicted,
                               "distance not provably zero over the piece"))
          return false;
      }
      if (!region_empty) region.add_eq0(dist);
    }
    return clean;
  }

  /// Proof-first check of an enumerable piece: when the rational walk
  /// rules out every witness, the piece's instances count as checked
  /// without visiting them one by one.
  static bool proves_clean(const poly::Piece& piece,
                           const scheduler::GroupSchedule& g,
                           std::size_t shared) {
    return rational_walk(piece, g, shared,
                         [](ClaimWitness::Kind, int, const char*) {
                           return false;
                         });
  }

  /// LP fallback for capped pieces: every possible violation the rational
  /// walk finds becomes a witness.
  void check_lp(const poly::Piece& piece, const scheduler::GroupSchedule& g,
                int grp, std::size_t shared, int dep_idx,
                const fold::FoldedDep& d) {
    rational_walk(piece, g, shared,
                  [&](ClaimWitness::Kind kind, int li, const char* detail) {
                    witness(kind, grp, li, dep_idx, d, detail);
                    return true;
                  });
  }

  /// A piece over the enumeration cap: decide it exactly when the Omega
  /// core can, fall back to the rational relaxation when it cannot.
  void check_capped(const poly::Piece& piece,
                    const scheduler::GroupSchedule& g, int grp,
                    std::size_t shared, int dep_idx,
                    const fold::FoldedDep& d) {
    ++rep.capped_pieces;
    if (!check_exact(piece, g, grp, shared, dep_idx, d))
      check_lp(piece, g, grp, shared, dep_idx, d);
  }
};

}  // namespace

ClaimReport check_parallel_claims(const fold::FoldedProgram& prog,
                                  feedback::RegionMetrics& m, bool downgrade) {
  auto& groups = m.sched.groups;
  std::vector<std::set<int>> contradicted(groups.size());
  ClaimReport rep;
  ClaimChecker checker{prog, rep, contradicted, {}};

  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const scheduler::GroupSchedule& g = groups[gi];
    if (!g.schedulable || g.levels.empty()) continue;
    for (const auto& lv : g.levels)
      if (lv.parallel) ++rep.parallel_levels;
    std::set<int> in_group(g.stmts.begin(), g.stmts.end());

    for (std::size_t di = 0; di < prog.deps.size(); ++di) {
      const fold::FoldedDep& d = prog.deps[di];
      if (!in_group.count(d.src) || !in_group.count(d.dst)) continue;
      std::size_t shared =
          shared_depth(prog.stmt(d.src).meta, prog.stmt(d.dst).meta);
      if (shared == 0) continue;  // no common loop: order satisfies it

      // Must-pieces only: every instance they describe provably occurred,
      // so a contradiction is a real one (over-approximate pieces would
      // manufacture false alarms).
      poly::PolySet must = d.must_relation();
      for (const poly::Piece& piece : must.pieces()) {
        if (piece.domain.dim() < shared ||
            piece.label_fn.out_dim() < shared)
          continue;  // malformed piece: nothing checkable
        std::optional<u64> n = piece.domain.count_points(kEnumCap);
        if (!n) {
          checker.check_capped(piece, g, static_cast<int>(gi), shared,
                               static_cast<int>(di), d);
        } else if (ClaimChecker::proves_clean(piece, g, shared)) {
          rep.instances_checked += *n;
          ++rep.pieces_proved;
        } else {
          // A possible witness: walk the instances so the witness text and
          // order are exactly those of the per-instance check.
          ++rep.pieces_enumerated;
          checker.check_enumerated(*piece.domain.enumerate(kEnumCap), piece,
                                   g, static_cast<int>(gi), shared,
                                   static_cast<int>(di), d);
        }
      }
    }
  }

  if (downgrade) {
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      for (int li : contradicted[gi]) {
        scheduler::Level& lv = groups[gi].levels[static_cast<std::size_t>(li)];
        if (lv.parallel) {
          lv.parallel = false;
          ++rep.downgraded_levels;
        }
      }
    }
    if (rep.downgraded_levels > 0) feedback::refresh_schedule_metrics(m);
  }
  return rep;
}

std::string ClaimReport::str() const {
  std::ostringstream os;
  os << "claims: " << (ok() ? "ok" : "CONTRADICTED") << " ("
     << parallel_levels << " parallel levels, " << instances_checked
     << " instances";
  if (capped_pieces > 0) os << ", " << capped_pieces << " capped pieces";
  if (downgraded_levels > 0) os << ", " << downgraded_levels << " downgraded";
  os << ")";
  for (const auto& w : witnesses) os << "\n  " << w.message;
  return os.str();
}

// ---------------------------------------------------------------------------

bool OracleReport::ok() const {
  if (!coverage.ok() || !precision.ok()) return false;
  for (const auto& c : claims)
    if (!c.ok()) return false;
  return true;
}

std::string OracleReport::verdict_line() const {
  u64 instances = 0, parallel = 0, contradictions = 0;
  int downgraded = 0;
  for (const auto& c : claims) {
    instances += c.instances_checked;
    parallel += c.parallel_levels;
    contradictions += c.witnesses.size();
    downgraded += c.downgraded_levels;
  }
  std::ostringstream os;
  os << "soundness oracle: " << (ok() ? "OK" : "VIOLATED") << " -- "
     << coverage.checked << " dynamic edges vs static may-deps ("
     << coverage.violations.size() << " uncovered, " << coverage.skipped
     << " skipped), " << parallel << " parallel claims over " << instances
     << " instances (" << contradictions << " contradictions";
  if (downgraded > 0) os << ", " << downgraded << " downgraded";
  os << "), exact precision " << (precision.ok() ? "ok" : "VIOLATED") << " ("
     << precision.pairs_checked << " pairs, " << precision.refined
     << " refined)";
  return os.str();
}

OracleReport run_oracle(const ir::Module& m, const fold::FoldedProgram& prog,
                        const exact::ModuleDeps& deps,
                        const std::vector<feedback::RegionMetrics*>& regions,
                        bool downgrade, obs::Session* obs,
                        support::CancelToken* cancel) {
  obs::Span oracle_span(obs, "oracle:run");
  OracleReport r;
  if (cancel != nullptr && cancel->poll()) return r;
  r.coverage = check_dynamic_coverage(m, prog, deps);
  r.precision = check_precision_tier(m, deps);
  // Each region's claim check touches only that region's metrics; reports
  // keep the (filtered) region order.
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < regions.size(); ++i)
    if (regions[i] != nullptr && regions[i]->analyzable) picked.push_back(i);
  r.claims.resize(picked.size());
  for (std::size_t k = 0; k < picked.size(); ++k) {
    // Cancelled mid-oracle: leave the remaining ClaimReports empty rather
    // than half-examined (cancelled() only — the entry poll() fires the
    // deadline).
    if (cancel != nullptr && cancel->cancelled()) break;
    r.claims[k] = check_parallel_claims(prog, *regions[picked[k]], downgrade);
  }
  if (obs != nullptr && obs->enabled()) {
    obs->add("oracle.regions_checked", static_cast<i64>(picked.size()));
    i64 claims = 0, capped = 0, proved = 0, enumerated = 0;
    for (const auto& c : r.claims) {
      claims += static_cast<i64>(c.parallel_levels);
      capped += static_cast<i64>(c.capped_pieces);
      proved += static_cast<i64>(c.pieces_proved);
      enumerated += static_cast<i64>(c.pieces_enumerated);
    }
    obs->add("oracle.parallel_levels_checked", claims);
    obs->add("verify.cap_hits", capped);
    // Which path decided each enumerable piece is a cost split, not a
    // result: kTiming keeps it out of stable self-profile reports.
    obs->add("oracle.pieces_proved", proved, obs::Stability::kTiming);
    obs->add("oracle.pieces_enumerated", enumerated,
             obs::Stability::kTiming);
  }
  return r;
}

}  // namespace pp::verify
