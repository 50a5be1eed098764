#ifndef RMA_CORE_ALGEBRA_H_
#define RMA_CORE_ALGEBRA_H_

#include <memory>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/ops.h"
#include "core/rma.h"
#include "storage/relation.h"
#include "util/result.h"

namespace rma {

/// Cross-algebra expression trees and the rewriting optimizer.
///
/// The paper's conclusion names "cross algebra optimizations that involve
/// both relational and linear algebra operations" as the opportunity RMA
/// opens. This module implements the linear-algebra side of that idea:
/// nested relational matrix operations are represented as expression trees,
/// algebraic identities rewrite the trees, and only then is the (smaller)
/// plan executed. The identities are set-semantics equivalences — the
/// rewritten expression returns the same relation (same schema, same
/// multiset of tuples) as the original; only the physical row order may
/// differ, which relations do not carry.
///
/// Rules (switched on and off together by RewriteRules::enabled):
///
///   mmu(tra(x BY U) BY C, y BY V)  →  cpd(x BY U, y BY V)
///     µ_C(tra(x)) is µ_U(x)ᵀ with rows permuted from schema order to
///     sorted-attribute-name order; cpd produces the same tuples with row
///     origin ∆Ū. This is exactly the covariance pattern of Sec. 5
///     (w4 = tra(w3); w5 = mmu(w4, w3)) and saves materializing the
///     transposed relation, re-sorting it by C, and one operation's worth
///     of contextual-information handling; the self-application
///     cpd(x, x) additionally runs on the symmetric SYRK kernel.
///
///   mmu(x BY U, tra(y BY V) BY C)  →  opd(x BY U, y BY V)
///     Valid when leaf y's application schema is lexicographically sorted
///     (µ_C(tra(y)) pairs x's j-th application column with y's j-th
///     *sorted* attribute, opd with the j-th *schema-order* attribute).
///
///   tra(tra(x BY U) BY C)  →  relabel(x, U)
///     Fig. 10's round trip: the result is x with attribute U stringified
///     into the context attribute C and the application columns emitted in
///     lexicographic order — no matrix computation at all.
///
///   rnk(tra(x BY U) BY C)  →  rnk(x BY U)
///     Rank is invariant under transposition and row permutation.
///
///   det(tra(x BY U) BY C)  →  det(x BY U)
///     det(Aᵀ) = det(A); requires leaf x's application schema to be
///     lexicographically sorted, because the rewrite drops the implicit
///     row permutation of µ_C(tra(x)) whose parity could flip the sign.
///
/// The SQL executor routes every FROM-clause operation tree through
/// RewriteExpression when RmaOptions::rewrites.enabled is set.

struct RmaExpr;
using RmaExprPtr = std::shared_ptr<RmaExpr>;

/// A node of a relational-matrix-algebra expression.
struct RmaExpr {
  enum class Kind {
    kLeaf,     ///< an input relation
    kOp,       ///< a relational matrix operation over child expressions
    kRelabel,  ///< double-transpose closed form (produced by rewriting only)
  };
  Kind kind = Kind::kLeaf;

  /// kLeaf: the input relation (shared columns; cheap to copy).
  Relation relation;

  // kOp
  MatrixOp op = MatrixOp::kInv;
  std::vector<RmaExprPtr> children;                ///< 1 or 2 (kRelabel: 1)
  std::vector<std::vector<std::string>> orders;    ///< BY list per child

  /// kRelabel: the order attribute of the eliminated inner transpose; its
  /// stringified values become the context attribute C of the result.
  std::string relabel_attr;

  /// Result name override (SQL `AS alias` on this node), applied post-eval.
  std::string alias;

  static RmaExprPtr Leaf(Relation r);
  static RmaExprPtr Unary(MatrixOp op, RmaExprPtr child,
                          std::vector<std::string> order);
  static RmaExprPtr Binary(MatrixOp op, RmaExprPtr left,
                           std::vector<std::string> order_left,
                           RmaExprPtr right,
                           std::vector<std::string> order_right);
};

/// Which rewrites fired, in application order ("mmu_tra_to_cpd", ...).
struct RewriteReport {
  std::vector<std::string> applied;
  int fired() const { return static_cast<int>(applied.size()); }
};

/// Applies the enabled identities bottom-up to a fixpoint and returns the
/// rewritten tree (input is not modified; untouched subtrees are shared).
RmaExprPtr RewriteExpression(const RmaExprPtr& expr, const RewriteRules& rules,
                             RewriteReport* report = nullptr);

/// Evaluates the tree: leaves pass through, kOp nodes run RmaUnary/
/// RmaBinary, kRelabel nodes build the double-transpose result directly
/// from the child relation. The whole tree shares one execution context,
/// so repeated operations over the same relation (the covariance pipeline
/// tra+mmu, the OLS workloads) reuse prepared arguments.
Result<Relation> EvaluateExpression(const RmaExprPtr& expr,
                                    const RmaOptions& opts = {});

/// Context-sharing variant used by pipeline evaluators (the SQL executor
/// threads one context through a whole statement).
Result<Relation> EvaluateExpression(const RmaExprPtr& expr, ExecContext* ctx);

/// RewriteExpression (honouring opts.rewrites) followed by
/// EvaluateExpression — the entry point the SQL executor uses.
Result<Relation> EvaluateOptimized(const RmaExprPtr& expr,
                                   const RmaOptions& opts = {},
                                   RewriteReport* report = nullptr);

/// Context-sharing variant of EvaluateOptimized.
Result<Relation> EvaluateOptimized(const RmaExprPtr& expr, ExecContext* ctx,
                                   RewriteReport* report);

}  // namespace rma

#endif  // RMA_CORE_ALGEBRA_H_
