#include "transform/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "ir/loop_nest.hpp"
#include "verify/oracle.hpp"
#include "verify/verifier.hpp"

namespace pp::transform {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kInterchange: return "interchange";
    case Kind::kTile: return "tile";
    case Kind::kFuse: return "fuse";
  }
  return "?";
}

namespace {

std::string fmt2(double v) {
  char b[32];
  std::snprintf(b, sizeof b, "%.2f", v);
  return b;
}

// The CFG loop a context dimension iterates, or (-1,-1) when the
// dimension belongs to a recursive component.
std::pair<int, int> loop_of_dim(const iiv::ContextKey& ctx, std::size_t d) {
  if (d >= ctx.depth() || ctx.parts[d].empty()) return {-1, -1};
  const iiv::CtxElem& e = ctx.parts[d].back();
  if (e.kind != iiv::CtxElem::Kind::kLoop) return {-1, -1};
  return {e.func, e.id};
}

int dim_of_loop(const iiv::ContextKey& ctx, int func, int loop_id) {
  for (std::size_t d = 0; d < ctx.depth(); ++d) {
    auto [f, l] = loop_of_dim(ctx, d);
    if (f == func && l == loop_id) return static_cast<int>(d);
  }
  return -1;
}

// Longest shared context prefix of two statements: the loop dimensions
// both sit under (identical parts, element for element).
int common_prefix_dims(const iiv::ContextKey& a, const iiv::ContextKey& b) {
  std::size_t n = std::min(a.depth(), b.depth());
  for (std::size_t d = 0; d < n; ++d)
    if (a.parts[d] != b.parts[d]) return static_cast<int>(d);
  return static_cast<int>(n);
}

struct LoopStmts {
  std::vector<int> stmts;  ///< statement ids whose context contains the loop
  int dim = -1;            ///< consistent context dimension, -1 when mixed
};

// Per (func, cfg-loop) statement membership, derived from the contexts.
std::map<std::pair<int, int>, LoopStmts> map_loop_stmts(
    const fold::FoldedProgram& prog) {
  std::map<std::pair<int, int>, LoopStmts> out;
  for (std::size_t id = 0; id < prog.statements.size(); ++id) {
    const iiv::ContextKey& ctx = prog.statements[id].meta.context;
    for (std::size_t d = 0; d < ctx.depth(); ++d) {
      auto key = loop_of_dim(ctx, d);
      if (key.first < 0) continue;
      LoopStmts& ls = out[key];
      if (ls.stmts.empty())
        ls.dim = static_cast<int>(d);
      else if (ls.dim != static_cast<int>(d))
        ls.dim = -1;  // same loop reached at different depths (call paths)
      ls.stmts.push_back(static_cast<int>(id));
    }
  }
  return out;
}

std::string site_of(const ir::Function& f, int line) {
  std::ostringstream os;
  os << (f.source_file.empty() ? "<?>" : f.source_file) << ":" << line << " ("
     << f.name << ")";
  return os.str();
}

int header_line(const ir::Function& f, const ir::CountedLoop& l) {
  return f.block(l.header).instrs[0].line;
}

// ---------------------------------------------------------------------------
// Sinking legality: the instructions between an outer loop's body entry and
// its inner loop's init will re-execute once per inner iteration. Safe when
// each is pure (or a load no nest store may alias), its result feeds only
// the inner interior, and its operands are stable across inner iterations.
// ---------------------------------------------------------------------------

bool reads_register(const ir::Instr& in, ir::Reg r) {
  switch (in.op) {
    case ir::Op::kConst:
    case ir::Op::kFConst:
    case ir::Op::kBr:
      return false;
    case ir::Op::kStore:
      return in.a == r || in.b == r;
    case ir::Op::kCall:
      return std::find(in.args.begin(), in.args.end(), r) != in.args.end();
    default:
      return in.a == r || in.b == r;
  }
}

struct SinkCheck {
  bool ok = false;
  std::string why;
};

SinkCheck check_sinkable(const ir::Module& m, const fold::FoldedProgram& prog,
                         int func, const ir::CountedLoop& outer,
                         const ir::CountedLoop& inner) {
  SinkCheck r;
  const ir::Function& f = m.functions[static_cast<std::size_t>(func)];
  const ir::BasicBlock& b1 = f.block(inner.preheader);
  if (b1.instrs.size() <= 2) {
    r.ok = true;
    return r;
  }
  std::vector<int> nest = ir::loop_blocks(f, outer);
  nest.push_back(outer.header);
  std::set<int> nest_set(nest.begin(), nest.end());
  std::vector<int> inner_interior = ir::loop_blocks(f, inner);
  std::set<int> inner_set(inner_interior.begin(), inner_interior.end());
  const std::vector<int> control{outer.header, inner.header, outer.latch};

  // Statement lookup for the load/alias check.
  auto stmts_at = [&](int block, int instr) {
    std::vector<int> ids;
    for (std::size_t i = 0; i < prog.statements.size(); ++i) {
      const vm::CodeRef& c = prog.statements[i].meta.code;
      if (c.func == func && c.block == block && c.instr == instr)
        ids.push_back(static_cast<int>(i));
    }
    return ids;
  };
  auto is_nest_mem_stmt = [&](int id) {
    const auto& s = prog.stmt(id).meta;
    return s.code.func == func && nest_set.count(s.code.block) != 0 &&
           s.is_memory;
  };

  for (std::size_t idx = 0; idx + 1 < b1.instrs.size(); ++idx) {
    if (static_cast<int>(idx) == inner.init_index) continue;
    const ir::Instr& e = b1.instrs[idx];
    if (e.op == ir::Op::kStore || e.op == ir::Op::kCall ||
        ir::op_is_terminator(e.op) || e.dst == ir::kNoReg) {
      r.why = "body-entry instruction cannot be sunk (side effects)";
      return r;
    }
    // Result must not steer loop control or be redefined in the nest.
    for (int cb : control) {
      for (const ir::Instr& in : f.block(cb).instrs) {
        if (reads_register(in, e.dst)) {
          r.why = cb == outer.latch
                      ? "body-entry value consumed after the inner loop "
                        "(reduction register — needs array expansion)"
                      : "body-entry value feeds loop control";
          return r;
        }
      }
    }
    for (int nb : nest) {
      const ir::BasicBlock& bb = f.block(nb);
      for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
        if (nb == inner.preheader && i == idx) continue;
        if (bb.instrs[i].dst == e.dst) {
          r.why = "sunk register redefined in the nest";
          return r;
        }
      }
    }
    // Operands must be inner-iteration invariant (the outer iv is fine:
    // it is exactly the value the instruction varied with before).
    for (ir::Reg q : {e.a, e.b}) {
      if (q == ir::kNoReg) continue;
      if (q == inner.iv) {
        r.why = "sunk instruction reads the inner induction variable";
        return r;
      }
      for (int ib : inner_interior) {
        for (const ir::Instr& in : f.block(ib).instrs) {
          if (in.dst == q) {
            r.why = "sunk operand written inside the inner loop";
            return r;
          }
        }
      }
    }
    if (e.op == ir::Op::kLoad) {
      // Re-executing the load is safe only when no store in the nest may
      // alias it — ask the folded dependences.
      for (int sid : stmts_at(inner.preheader, static_cast<int>(idx))) {
        for (const fold::FoldedDep& d : prog.deps) {
          if (d.kind == ddg::DepKind::kRegFlow) continue;
          bool touches = (d.src == sid && is_nest_mem_stmt(d.dst)) ||
                         (d.dst == sid && is_nest_mem_stmt(d.src));
          if (touches) {
            r.why = "sunk load aliases a store in the nest";
            return r;
          }
        }
      }
    }
  }
  r.ok = true;
  return r;
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

struct PairCand {
  ir::CountedLoop outer, inner;
  int func = -1;
  int d_outer = -1, d_inner = -1;
  std::vector<int> region;       ///< statement ids under the outer loop
  std::vector<int> deep_stmts;   ///< memory stmts directly in the inner body
};

// Schedule-band legality for reordering dims [d_outer, d_inner] of every
// group that actually spans the inner dimension.
bool bands_permit(const feedback::RegionMetrics& mx, int d_outer, int d_inner,
                  const fold::FoldedProgram& prog, std::string* why) {
  if (!mx.analyzable) {
    *why = "region unanalyzable: " + mx.degrade_reason;
    return false;
  }
  for (const scheduler::GroupSchedule& g : mx.sched.groups) {
    bool spans = false;
    for (int id : g.stmts)
      if (prog.stmt(id).meta.depth > static_cast<std::size_t>(d_inner))
        spans = true;
    if (!spans) continue;
    if (!g.schedulable) {
      *why = "opaque dependences forced the identity schedule";
      return false;
    }
    if (!g.band_spans(static_cast<std::size_t>(d_outer),
                      static_cast<std::size_t>(d_inner))) {
      *why = "dimensions are not in one permutable band";
      return false;
    }
  }
  return true;
}

i64 trip_count(const fold::FoldedProgram& prog, const std::vector<int>& stmts,
               int dim) {
  for (int id : stmts) {
    const fold::FoldedStatement& s = prog.stmt(id);
    if (s.meta.depth <= static_cast<std::size_t>(dim)) continue;
    for (const poly::Piece& p : s.domain.pieces()) {
      auto b = p.domain.var_bounds(static_cast<std::size_t>(dim));
      if (b) return static_cast<i64>(b->second - b->first) + 1;
    }
  }
  return -1;
}

void plan_pairs(const ir::Module& m, const fold::FoldedProgram& prog,
                const cfg::ControlStructure& cs, const Options& opts,
                const std::map<std::pair<int, int>, LoopStmts>& loop_stmts,
                std::vector<Plan>* plans, std::vector<Refusal>* refusals) {
  for (const ir::Function& f : m.functions) {
    auto fit = cs.forests.find(f.id);
    if (fit == cs.forests.end()) continue;  // function never executed
    std::vector<ir::CountedLoop> loops = ir::find_counted_loops(f);
    for (const ir::CountedLoop& outer : loops) {
      for (const ir::CountedLoop& inner : loops) {
        if (outer.body != inner.preheader || inner.exit != outer.latch)
          continue;
        PairCand pc;
        pc.outer = outer;
        pc.inner = inner;
        pc.func = f.id;
        int lo = fit->second.loop_of_header(outer.header);
        int li = fit->second.loop_of_header(inner.header);
        if (lo < 0 || li < 0) continue;
        auto oit = loop_stmts.find({f.id, lo});
        auto iit = loop_stmts.find({f.id, li});
        if (oit == loop_stmts.end() || iit == loop_stmts.end()) continue;
        if (oit->second.dim < 0 || iit->second.dim < 0) continue;
        pc.d_outer = oit->second.dim;
        pc.d_inner = iit->second.dim;
        if (pc.d_inner != pc.d_outer + 1) continue;
        pc.region = oit->second.stmts;

        // Memory statements directly in the inner body drive the locality
        // model; deeper statements keep their own innermost dimension.
        double cost_now = 0.0, cost_swapped = 0.0;
        bool big_stride = false, reuse = false, orient_conflict = false;
        for (int id : iit->second.stmts) {
          const fold::FoldedStatement& s = prog.stmt(id);
          if (!s.meta.is_memory ||
              s.meta.depth != static_cast<std::size_t>(pc.d_inner) + 1)
            continue;
          pc.deep_stmts.push_back(id);
          auto si = s.stride_along(static_cast<std::size_t>(pc.d_inner));
          auto so = s.stride_along(static_cast<std::size_t>(pc.d_outer));
          double w = static_cast<double>(s.meta.executions);
          cost_now += w * feedback::access_cost(si);
          cost_swapped += w * feedback::access_cost(so);
          if (so && (*so >= 64 || *so <= -64)) big_stride = true;
          if ((si && *si == 0) || (so && *so == 0)) reuse = true;
          // Orientation conflict (the transpose pattern): the inner sweep
          // jumps a full line per step while the outer direction moves
          // within one — tiling turns the outer steps of each tile into
          // same-line hits, which neither loop order can (interchange only
          // moves the conflict to the other access). Complete on its own:
          // the big inner stride is the eviction driver.
          if (si && so && (*si >= 64 || *si <= -64) && *so != 0 &&
              *so * static_cast<i64>(opts.tile) <= 64 &&
              *so * static_cast<i64>(opts.tile) >= -64)
            orient_conflict = true;
        }
        if (pc.deep_stmts.empty()) continue;
        // Tiling profits only when the nest re-touches data — a stencil
        // neighborhood (two accesses with the same linear part, shifted by
        // a small constant) or a dimension-broadcast (stride 0) — with an
        // outer-direction stride wide enough that the untiled sweep keeps
        // evicting it. A single-visit sweep (fill/copy) only pays the
        // extra loop overhead.
        for (std::size_t x = 0; x < pc.deep_stmts.size() && !reuse; ++x) {
          const poly::AffineMap* ax =
              prog.stmt(pc.deep_stmts[x]).affine_access();
          if (ax == nullptr || ax->out_dim() != 1) continue;
          for (std::size_t y = x + 1; y < pc.deep_stmts.size(); ++y) {
            const poly::AffineMap* ay =
                prog.stmt(pc.deep_stmts[y]).affine_access();
            if (ay == nullptr || ay->out_dim() != 1 ||
                ay->in_dim() != ax->in_dim())
              continue;
            poly::AffineExpr delta = ax->output(0) - ay->output(0);
            i64 k = delta.const_term();
            if (delta.is_constant() && k != 0 && k > -4096 && k < 4096) {
              reuse = true;
              break;
            }
          }
        }
        const bool tile_reuse = (big_stride && reuse) || orient_conflict;

        const std::string site = site_of(f, header_line(f, outer));
        const std::string lines = "loops @" +
                                  std::to_string(header_line(f, outer)) +
                                  "/@" + std::to_string(header_line(f, inner));
        bool want_interchange = cost_swapped < cost_now * 0.999;
        bool want_tile = tile_reuse &&
                         trip_count(prog, pc.deep_stmts, pc.d_outer) >=
                             2 * opts.tile &&
                         trip_count(prog, pc.deep_stmts, pc.d_inner) >=
                             2 * opts.tile;
        if (!want_interchange && !want_tile) continue;

        SinkCheck sink = check_sinkable(m, prog, f.id, outer, inner);
        if (!sink.ok) {
          refusals->push_back(
              {site, (want_interchange ? "interchange " : "tile ") + lines,
               sink.why});
          continue;
        }

        feedback::Region region;
        region.name = site;
        region.stmts = pc.region;
        feedback::AnalyzeOptions aopts;
        aopts.sched.cancel = opts.cancel;
        feedback::RegionMetrics mx = feedback::analyze_region(prog, region, aopts);
        std::string why;
        if (!bands_permit(mx, pc.d_outer, pc.d_inner, prog, &why)) {
          refusals->push_back(
              {site, (want_interchange ? "interchange " : "tile ") + lines,
               why});
          continue;
        }
        bool par = false;
        for (const auto& g : mx.sched.groups)
          if (static_cast<std::size_t>(pc.d_outer) < g.levels.size() &&
              g.levels[static_cast<std::size_t>(pc.d_outer)].parallel)
            par = true;

        if (want_interchange) {
          Plan p;
          p.kind = Kind::kInterchange;
          p.func = f.id;
          p.outer_header = outer.header;
          p.inner_header = inner.header;
          p.predicted = std::max(mx.est_speedup, 1.0);
          p.parallel_outer = par;
          p.site = site;
          p.desc = "interchange " + lines;
          p.mx = mx;
          plans->push_back(std::move(p));
        }
        if (want_tile && mx.tile_depth >= 2) {
          Plan p;
          p.kind = Kind::kTile;
          p.func = f.id;
          p.outer_header = outer.header;
          p.inner_header = inner.header;
          p.tile = opts.tile;
          p.predicted = 1.0;  // the stride model cannot see tile reuse
          p.parallel_outer = par;
          p.site = site;
          p.desc = "tile " + std::to_string(opts.tile) + "x" +
                   std::to_string(opts.tile) + " " + lines;
          p.mx = mx;
          plans->push_back(std::move(p));
        }
      }
    }
  }
}

poly::AffineExpr embed(const poly::AffineExpr& e, std::size_t off,
                       std::size_t total) {
  poly::AffineExpr out(total);
  for (std::size_t i = 0; i < e.dim(); ++i) out.coeff(off + i) = e.coeff(i);
  out.const_term() = e.const_term();
  return out;
}

// Shadow memory keeps only the LAST reader of each cell, so an anti
// dependence from an earlier-loop read to a later-loop overwrite can be
// missing from the folded DDG entirely — typically the overwrite's own
// reload was the cell's last reader. (Flow and output edges are complete:
// every read knows its producer and writes chain through last-writer.)
// Re-derive the missing edges from the folded address maps: a read in
// loop A and a write in loop B touching the same address within one
// shared-prefix iteration must satisfy i_write >= i_read at the fused
// dimension, or fusion moves the overwrite before the read.
bool fusion_anti_ok(const fold::FoldedProgram& prog,
                    const std::set<int>& a_stmts,
                    const std::set<int>& b_stmts, std::string* why) {
  for (int ra : a_stmts) {
    const fold::FoldedStatement& rs = prog.stmt(ra);
    if (!rs.meta.is_memory || rs.meta.writes_memory) continue;
    for (int wb : b_stmts) {
      const fold::FoldedStatement& ws = prog.stmt(wb);
      if (!ws.meta.writes_memory) continue;
      int pfx = common_prefix_dims(rs.meta.context, ws.meta.context);
      for (const poly::Piece& pr : rs.addresses.pieces()) {
        if (!pr.label_exact || pr.label_fn.out_dim() != 1) {
          *why = "read address not exactly affine — anti edges unknowable";
          return false;
        }
        for (const poly::Piece& pw : ws.addresses.pieces()) {
          if (!pw.label_exact || pw.label_fn.out_dim() != 1) {
            *why = "write address not exactly affine — anti edges unknowable";
            return false;
          }
          const std::size_t na = pr.domain.dim();
          const std::size_t nb = pw.domain.dim();
          const std::size_t tot = na + nb;
          if (na <= static_cast<std::size_t>(pfx) ||
              nb <= static_cast<std::size_t>(pfx)) {
            *why = "access outside the fused dimension — shape unusable";
            return false;
          }
          poly::Polyhedron p(tot);
          for (const poly::Constraint& c : pr.domain.constraints())
            p.add({embed(c.expr, 0, tot), c.equality});
          for (const poly::Constraint& c : pw.domain.constraints())
            p.add({embed(c.expr, na, tot), c.equality});
          p.add_eq0(embed(pr.label_fn.output(0), 0, tot) -
                    embed(pw.label_fn.output(0), na, tot));
          for (int c = 0; c < pfx; ++c)
            p.add_eq0(poly::AffineExpr::var(tot, static_cast<std::size_t>(c)) -
                      poly::AffineExpr::var(tot, na + static_cast<std::size_t>(c)));
          // A violating instance: the write's fused-dim iteration strictly
          // precedes the read's.
          p.add_ge0(poly::AffineExpr::var(tot, static_cast<std::size_t>(pfx)) -
                    poly::AffineExpr::var(tot, na + static_cast<std::size_t>(pfx)) -
                    1);
          if (!p.is_integer_empty()) {
            *why =
                "fusing would overwrite a cell before an earlier loop's read "
                "(anti dependence not in the folded DDG)";
            return false;
          }
        }
      }
    }
  }
  return true;
}

// Polyhedral fusion legality: every dependence from loop A into loop B
// must keep a non-negative distance at the fused level once the shared
// outer dimensions are pinned equal.
bool fusion_deps_ok(const fold::FoldedProgram& prog,
                    const std::set<int>& a_stmts, int a_func, int a_loop,
                    const std::set<int>& b_stmts, int b_func, int b_loop,
                    std::string* why) {
  for (const fold::FoldedDep& d : prog.deps) {
    bool fwd = a_stmts.count(d.src) != 0 && b_stmts.count(d.dst) != 0;
    bool bwd = b_stmts.count(d.src) != 0 && a_stmts.count(d.dst) != 0;
    if (!fwd && !bwd) continue;
    const iiv::ContextKey& sctx = prog.stmt(d.src).meta.context;
    const iiv::ContextKey& dctx = prog.stmt(d.dst).meta.context;
    int pfx = common_prefix_dims(sctx, dctx);
    if (dim_of_loop(sctx, fwd ? a_func : b_func, fwd ? a_loop : b_loop) !=
            pfx ||
        dim_of_loop(dctx, fwd ? b_func : a_func, fwd ? b_loop : a_loop) !=
            pfx) {
      *why = "dependence crosses incompatible nesting";
      return false;
    }
    for (const poly::Piece& p : d.relation.pieces()) {
      if (!p.label_exact) {
        *why = "dependence labels over-approximate";
        return false;
      }
      const std::size_t n = p.domain.dim();
      if (p.label_fn.in_dim() != n ||
          p.label_fn.out_dim() <= static_cast<std::size_t>(pfx) ||
          n <= static_cast<std::size_t>(pfx)) {
        *why = "dependence relation shape unusable";
        return false;
      }
      poly::Polyhedron dom = p.domain;
      for (int c = 0; c < pfx; ++c)
        dom.add_eq0(poly::AffineExpr::var(n, static_cast<std::size_t>(c)) -
                    p.label_fn.output(static_cast<std::size_t>(c)));
      if (bwd) {
        // src sits in the textually-later loop: the dependence crosses
        // iterations of a shared surrounding loop (src@t -> dst@t' with
        // t' > t), which fusion preserves — it never reorders the shared
        // dims. An instance with ALL shared dims equal would mean the
        // later loop fed the earlier one inside a single outer iteration;
        // only an over-approximated relation can claim that, and fusing
        // on top of it would be unsound.
        if (dom.minimize(poly::AffineExpr::var(n, 0) * 0).status !=
            poly::LpStatus::kInfeasible) {
          *why = "backward dependence not separated by the shared loops";
          return false;
        }
        continue;
      }
      poly::AffineExpr diff =
          poly::AffineExpr::var(n, static_cast<std::size_t>(pfx)) -
          p.label_fn.output(static_cast<std::size_t>(pfx));
      poly::BoundResult r = dom.minimize(diff);
      if (r.status == poly::LpStatus::kInfeasible) continue;
      if (r.status != poly::LpStatus::kOptimal || r.value < Rat(0)) {
        *why = "fused dependence distance may be negative";
        return false;
      }
    }
  }
  return true;
}

void plan_fusion(const ir::Module& m, const fold::FoldedProgram& prog,
                 const cfg::ControlStructure& cs, const Options& opts,
                 const std::map<std::pair<int, int>, LoopStmts>& loop_stmts,
                 std::vector<Plan>* plans, std::vector<Refusal>* refusals) {
  (void)opts;
  for (const ir::Function& f : m.functions) {
    auto fit = cs.forests.find(f.id);
    if (fit == cs.forests.end()) continue;
    std::vector<ir::CountedLoop> loops = ir::find_counted_loops(f);
    std::map<int, const ir::CountedLoop*> by_preheader;
    for (const ir::CountedLoop& l : loops)
      by_preheader[l.preheader] = &l;

    std::set<int> consumed;
    for (const ir::CountedLoop& first : loops) {
      if (consumed.count(first.header) != 0) continue;
      if (!first.init_is_const) continue;
      // Grow the maximal compatible adjacent chain starting here.
      std::vector<const ir::CountedLoop*> chain{&first};
      for (;;) {
        auto it = by_preheader.find(chain.back()->exit);
        if (it == by_preheader.end()) break;
        const ir::CountedLoop* nxt = it->second;
        if (!nxt->init_is_const || nxt->begin != first.begin ||
            nxt->step != first.step || nxt->cmp_op != first.cmp_op ||
            nxt->bound != first.bound)
          break;
        chain.push_back(nxt);
      }
      if (chain.size() < 2) continue;
      for (const ir::CountedLoop* l : chain) consumed.insert(l->header);

      // Per-loop statement sets + dims; every loop must be profiled.
      std::vector<std::set<int>> stmts;
      std::vector<int> cfg_ids;
      bool usable = true;
      for (const ir::CountedLoop* l : chain) {
        int lid = fit->second.loop_of_header(l->header);
        auto sit = lid < 0 ? loop_stmts.end() : loop_stmts.find({f.id, lid});
        if (sit == loop_stmts.end() || sit->second.dim < 0) {
          usable = false;
          break;
        }
        cfg_ids.push_back(lid);
        stmts.emplace_back(sit->second.stmts.begin(),
                           sit->second.stmts.end());
      }
      if (!usable) continue;

      // Profitability: some memory dependence actually crosses the chain —
      // fusing independent loops moves no data closer.
      bool mem_dep = false;
      for (const fold::FoldedDep& d : prog.deps) {
        if (d.kind == ddg::DepKind::kRegFlow) continue;
        for (std::size_t i = 0; i < stmts.size() && !mem_dep; ++i)
          for (std::size_t j = 0; j < stmts.size(); ++j)
            if (i != j && stmts[i].count(d.src) != 0 &&
                stmts[j].count(d.dst) != 0) {
              mem_dep = true;
              break;
            }
        if (mem_dep) break;
      }
      if (!mem_dep) continue;

      const std::string site = site_of(f, header_line(f, first));
      std::string desc = "fuse " + std::to_string(chain.size()) +
                         " loops @" + std::to_string(header_line(f, first));
      std::string why;
      bool legal = true;
      for (std::size_t i = 0; i < chain.size() && legal; ++i)
        for (std::size_t j = i + 1; j < chain.size() && legal; ++j)
          if (!fusion_deps_ok(prog, stmts[i], f.id, cfg_ids[i], stmts[j],
                              f.id, cfg_ids[j], &why) ||
              !fusion_anti_ok(prog, stmts[i], stmts[j], &why))
            legal = false;
      if (!legal) {
        refusals->push_back({site, desc, why});
        continue;
      }
      Plan p;
      p.kind = Kind::kFuse;
      p.func = f.id;
      for (const ir::CountedLoop* l : chain) p.chain.push_back(l->header);
      p.site = site;
      p.desc = std::move(desc);
      plans->push_back(std::move(p));
    }
  }
}

// ---------------------------------------------------------------------------
// Application + measurement
// ---------------------------------------------------------------------------

struct RunOut {
  bool ok = false;
  std::string why;
  i64 exit_value = 0;
  u64 cycles = 0;
  std::vector<i64> image;
};

RunOut run_module(const ir::Module& m, const std::string& entry,
                  const std::vector<i64>& args, const Options& opts) {
  RunOut out;
  vm::Machine mach(m);
  mach.set_cost_model(opts.cost);
  mach.set_cancel(opts.cancel);
  try {
    vm::RunResult rr = mach.run(entry, args, opts.max_steps);
    if (rr.truncated) {
      out.why = "run truncated: " + rr.truncate_reason;
      return out;
    }
    out.exit_value = rr.exit_value;
    out.cycles = rr.stats.cycles;
    std::span<const i64> img = mach.memory_image();
    out.image.assign(img.begin(), img.end());
    out.ok = true;
  } catch (const Error& e) {
    out.why = std::string("run trapped: ") + e.what();
  }
  return out;
}

bool apply_plan(ir::Module& mc, const Plan& p, std::string* why) {
  ir::Function& f = mc.functions[static_cast<std::size_t>(p.func)];
  switch (p.kind) {
    case Kind::kInterchange:
    case Kind::kTile: {
      std::optional<ir::CountedLoop> o =
          ir::match_counted_loop(f, p.outer_header);
      std::optional<ir::CountedLoop> i =
          ir::match_counted_loop(f, p.inner_header);
      if (!o || !i) {
        *why = "loop pair no longer matches";
        return false;
      }
      if (!ir::sink_preheader_extras(f, *o, *i)) {
        *why = "could not sink body-entry instructions";
        return false;
      }
      bool done = p.kind == Kind::kInterchange
                      ? ir::interchange(f, *o, *i)
                      : ir::tile2(f, *o, *i, p.tile);
      if (!done) *why = "structural rewrite preconditions failed";
      return done;
    }
    case Kind::kFuse: {
      if (p.chain.size() < 2) {
        *why = "fusion chain too short";
        return false;
      }
      for (std::size_t k = 1; k < p.chain.size(); ++k) {
        std::optional<ir::CountedLoop> a =
            ir::match_counted_loop(f, p.chain[0]);
        std::optional<ir::CountedLoop> b =
            ir::match_counted_loop(f, p.chain[k]);
        if (!a || !b) {
          *why = "fusion chain loop no longer matches";
          return false;
        }
        if (!ir::fuse(f, *a, *b)) {
          *why = "structural fusion preconditions failed";
          return false;
        }
      }
      return true;
    }
  }
  *why = "unknown transformation kind";
  return false;
}

void finish_module(ir::Module& mc) {
  for (ir::Function& f : mc.functions)
    if (!f.blocks.empty()) ir::remove_unreachable_blocks(f);
}

}  // namespace

std::vector<Plan> plan(const ir::Module& m, const fold::FoldedProgram& prog,
                       const cfg::ControlStructure& cs, const Options& opts) {
  std::vector<Plan> plans;
  std::vector<Refusal> refusals;  // surfaced again by apply_and_measure
  std::map<std::pair<int, int>, LoopStmts> loop_stmts = map_loop_stmts(prog);
  plan_pairs(m, prog, cs, opts, loop_stmts, &plans, &refusals);
  plan_fusion(m, prog, cs, opts, loop_stmts, &plans, &refusals);
  // Planning-time refusals travel as sentinel plans so a single report
  // shows both populations; apply_and_measure re-derives the diagnostics.
  (void)refusals;
  return plans;
}

EngineReport apply_and_measure(const ir::Module& m,
                               const fold::FoldedProgram& prog,
                               const std::vector<Plan>& plans,
                               const std::string& entry,
                               const std::vector<i64>& args,
                               const Options& opts) {
  EngineReport rep;
  rep.ran = true;
  RunOut base = run_module(m, entry, args, opts);
  if (!base.ok) {
    rep.skipped_reason = "baseline " + base.why;
    return rep;
  }
  rep.baseline_cycles = base.cycles;

  struct Measured {
    const Plan* plan = nullptr;
    double speedup = 1.0;
    bool identical = false;
  };
  std::vector<Measured> survivors;

  for (const Plan& p : plans) {
    if (opts.cancel != nullptr && opts.cancel->cancelled()) {
      rep.skipped_reason = std::string("cancelled (") +
                           opts.cancel->reason_name() + ")";
      break;
    }
    // Oracle gate: a schedule whose claims the must-evidence contradicts
    // is refused with a diagnostic, never applied.
    if (!opts.force && opts.run_oracle && !p.mx.sched.groups.empty()) {
      feedback::RegionMetrics mx = p.mx;
      verify::ClaimReport claims =
          verify::check_parallel_claims(prog, mx, /*downgrade=*/true);
      if (!claims.ok()) {
        std::ostringstream why;
        why << "oracle contradicted the schedule ("
            << claims.witnesses.size() << " witness(es), "
            << claims.downgraded_levels << " level(s) downgraded): "
            << claims.witnesses.front().message;
        rep.refused.push_back({p.site, p.desc, why.str()});
        continue;
      }
    }
    ir::Module mc = m;
    std::string why;
    if (!apply_plan(mc, p, &why)) {
      rep.refused.push_back({p.site, p.desc, why});
      continue;
    }
    finish_module(mc);
    verify::VerifyReport vr = verify::verify_module(mc);
    if (!vr.ok()) {
      rep.violations.push_back(p.site + "  " + p.desc +
                               ": rewritten module failed verification: " +
                               vr.issues.front().str());
      continue;
    }
    RunOut after = run_module(mc, entry, args, opts);
    if (!after.ok) {
      rep.violations.push_back(p.site + "  " + p.desc +
                               ": transformed " + after.why);
      continue;
    }
    Applied a;
    a.kind = p.kind;
    a.site = p.site;
    a.desc = p.desc;
    a.predicted = p.predicted;
    a.parallel_outer = p.parallel_outer;
    a.cycles_before = base.cycles;
    a.cycles_after = after.cycles;
    a.measured = after.cycles == 0
                     ? 1.0
                     : static_cast<double>(base.cycles) /
                           static_cast<double>(after.cycles);
    a.output_identical =
        after.exit_value == base.exit_value && after.image == base.image;
    if (!a.output_identical)
      rep.violations.push_back(p.site + "  " + p.desc +
                               ": output differs from the original run — "
                               "the applied schedule is unsound");
    if (a.output_identical)
      survivors.push_back({&p, a.measured, true});
    rep.applied.push_back(std::move(a));
  }

  // Combined module: all surviving plans together; when interchange and
  // tiling both survived on the same pair, keep the better-measured one.
  std::map<std::pair<int, int>, Measured> best_per_pair;
  std::vector<const Plan*> selected;
  for (const Measured& s : survivors) {
    if (s.speedup <= 1.0) continue;  // the combined module takes wins only
    if (s.plan->kind == Kind::kFuse) {
      selected.push_back(s.plan);
      continue;
    }
    auto key = std::make_pair(s.plan->func, s.plan->outer_header);
    auto it = best_per_pair.find(key);
    if (it == best_per_pair.end() || s.speedup > it->second.speedup)
      best_per_pair[key] = s;
  }
  for (const auto& [key, s] : best_per_pair) selected.push_back(s.plan);

  if (!selected.empty() && rep.skipped_reason.empty()) {
    ir::Module combined = m;
    for (const Plan* p : selected) {
      ir::Module snapshot = combined;
      std::string why;
      if (!apply_plan(combined, *p, &why)) combined = std::move(snapshot);
    }
    finish_module(combined);
    verify::VerifyReport vr = verify::verify_module(combined);
    if (!vr.ok()) {
      rep.violations.push_back(
          "combined module failed verification: " + vr.issues.front().str());
      rep.combined_identical = false;
    } else {
      RunOut after = run_module(combined, entry, args, opts);
      if (!after.ok) {
        rep.violations.push_back("combined transformed " + after.why);
        rep.combined_identical = false;
      } else {
        rep.combined_identical = after.exit_value == base.exit_value &&
                                 after.image == base.image;
        rep.combined_speedup =
            after.cycles == 0 ? 1.0
                              : static_cast<double>(base.cycles) /
                                    static_cast<double>(after.cycles);
        if (!rep.combined_identical)
          rep.violations.push_back(
              "combined module output differs from the original run");
      }
    }
  }
  return rep;
}

EngineReport run(const ir::Module& m, const fold::FoldedProgram& prog,
                 const cfg::ControlStructure& cs, const std::string& entry,
                 const std::vector<i64>& args, const Options& opts) {
  // Planning-time refusals (sink/band/dependence) must reach the report:
  // re-run the planners with a local refusal list and merge.
  std::vector<Plan> plans;
  std::vector<Refusal> refusals;
  std::map<std::pair<int, int>, LoopStmts> loop_stmts = map_loop_stmts(prog);
  plan_pairs(m, prog, cs, opts, loop_stmts, &plans, &refusals);
  plan_fusion(m, prog, cs, opts, loop_stmts, &plans, &refusals);
  EngineReport rep = apply_and_measure(m, prog, plans, entry, args, opts);
  rep.refused.insert(rep.refused.begin(), refusals.begin(), refusals.end());
  return rep;
}

std::string render_section(const EngineReport& r) {
  std::ostringstream os;
  if (!r.ran || !r.skipped_reason.empty()) {
    os << "skipped ("
       << (r.skipped_reason.empty() ? "engine did not run" : r.skipped_reason)
       << ")\n";
    return os.str();
  }
  os << "baseline: " << r.baseline_cycles
     << " cycles under the transform cost model\n";
  if (r.applied.empty()) {
    os << "applied: none\n";
  } else {
    os << "applied:\n";
    for (const Applied& a : r.applied) {
      os << "  " << a.site << "  " << a.desc << "  predicted "
         << fmt2(a.predicted) << "x  measured " << fmt2(a.measured) << "x ("
         << a.cycles_before << " -> " << a.cycles_after << " cycles)  output "
         << (a.output_identical ? "identical" : "DIFFERS");
      if (a.parallel_outer) os << "  [parallel outer]";
      os << "\n";
    }
  }
  if (!r.refused.empty()) {
    os << "refused:\n";
    for (const Refusal& f : r.refused)
      os << "  " << f.site << "  " << f.desc << ": " << f.reason << "\n";
  }
  if (r.violations.empty()) {
    os << "soundness: every applied schedule left program output "
          "byte-identical\n";
  } else {
    for (const std::string& v : r.violations)
      os << "SOUNDNESS VIOLATION: " << v << "\n";
  }
  if (!r.applied.empty())
    os << "combined: " << fmt2(r.combined_speedup) << "x  output "
       << (r.combined_identical ? "identical" : "DIFFERS") << "\n";
  return os.str();
}

}  // namespace pp::transform
