#include "ra/expr.h"

#include <cassert>
#include <unordered_map>

namespace datalog {
namespace ra {
namespace {

class ScanExpr final : public RaExpr {
 public:
  ScanExpr(PredId p, int arity) : RaExpr(arity), pred_(p) {}
  Relation Eval(const Instance& db) const override { return db.Rel(pred_); }

 private:
  PredId pred_;
};

class ConstExpr final : public RaExpr {
 public:
  explicit ConstExpr(Relation rel) : RaExpr(rel.arity()), rel_(std::move(rel)) {}
  Relation Eval(const Instance&) const override { return rel_; }

 private:
  Relation rel_;
};

class ProjectExpr final : public RaExpr {
 public:
  ProjectExpr(RaExprPtr child, std::vector<int> cols)
      : RaExpr(static_cast<int>(cols.size())),
        child_(std::move(child)),
        cols_(std::move(cols)) {
#ifndef NDEBUG
    for (int c : cols_) assert(c >= 0 && c < child_->arity());
#endif
  }

  Relation Eval(const Instance& db) const override {
    Relation in = child_->Eval(db);
    Relation out(arity());
    Tuple t(cols_.size());
    for (const Tuple& row : in) {
      for (size_t i = 0; i < cols_.size(); ++i) {
      t[i] = row[static_cast<size_t>(cols_[i])];
    }
      out.Insert(t);
    }
    return out;
  }

 private:
  RaExprPtr child_;
  std::vector<int> cols_;
};

class SelectExpr final : public RaExpr {
 public:
  SelectExpr(RaExprPtr child, std::vector<SelCondition> conds)
      : RaExpr(child->arity()),
        child_(std::move(child)),
        conds_(std::move(conds)) {}

  Relation Eval(const Instance& db) const override {
    Relation in = child_->Eval(db);
    Relation out(arity());
    for (const Tuple& row : in) {
      if (Matches(row)) out.Insert(row);
    }
    return out;
  }

 private:
  bool Matches(const Tuple& row) const {
    for (const SelCondition& c : conds_) {
      Value l =
          c.lhs.is_column ? row[static_cast<size_t>(c.lhs.index)] : c.lhs.constant;
      Value r =
          c.rhs.is_column ? row[static_cast<size_t>(c.rhs.index)] : c.rhs.constant;
      if ((l == r) != c.equal) return false;
    }
    return true;
  }

  RaExprPtr child_;
  std::vector<SelCondition> conds_;
};

class ProductExpr final : public RaExpr {
 public:
  ProductExpr(RaExprPtr left, RaExprPtr right)
      : RaExpr(left->arity() + right->arity()),
        left_(std::move(left)),
        right_(std::move(right)) {}

  Relation Eval(const Instance& db) const override {
    Relation l = left_->Eval(db);
    Relation r = right_->Eval(db);
    Relation out(arity());
    for (const Tuple& lt : l) {
      for (const Tuple& rt : r) {
        Tuple t = lt;
        for (Value v : rt) t.push_back(v);
        out.Insert(std::move(t));
      }
    }
    return out;
  }

 private:
  RaExprPtr left_;
  RaExprPtr right_;
};

class JoinExpr final : public RaExpr {
 public:
  JoinExpr(RaExprPtr left, RaExprPtr right,
           std::vector<std::pair<int, int>> eq_cols)
      : RaExpr(left->arity() + right->arity()),
        left_(std::move(left)),
        right_(std::move(right)),
        eq_cols_(std::move(eq_cols)) {}

  Relation Eval(const Instance& db) const override {
    Relation l = left_->Eval(db);
    Relation r = right_->Eval(db);
    Relation out(arity());
    // Hash the right input on its join key.
    std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> index;
    Tuple key(eq_cols_.size());
    for (const Tuple& rt : r) {
      for (size_t i = 0; i < eq_cols_.size(); ++i) {
        key[i] = rt[static_cast<size_t>(eq_cols_[i].second)];
      }
      index[key].push_back(&rt);
    }
    for (const Tuple& lt : l) {
      for (size_t i = 0; i < eq_cols_.size(); ++i) {
        key[i] = lt[static_cast<size_t>(eq_cols_[i].first)];
      }
      auto it = index.find(key);
      if (it == index.end()) continue;
      for (const Tuple* rt : it->second) {
        Tuple t = lt;
        for (Value v : *rt) t.push_back(v);
        out.Insert(std::move(t));
      }
    }
    return out;
  }

 private:
  RaExprPtr left_;
  RaExprPtr right_;
  std::vector<std::pair<int, int>> eq_cols_;
};

class UnionExpr final : public RaExpr {
 public:
  UnionExpr(RaExprPtr left, RaExprPtr right)
      : RaExpr(left->arity()), left_(std::move(left)), right_(std::move(right)) {
    assert(left_->arity() == right_->arity());
  }

  Relation Eval(const Instance& db) const override {
    Relation out = left_->Eval(db);
    out.UnionWith(right_->Eval(db));
    return out;
  }

 private:
  RaExprPtr left_;
  RaExprPtr right_;
};

class DiffExpr final : public RaExpr {
 public:
  DiffExpr(RaExprPtr left, RaExprPtr right)
      : RaExpr(left->arity()), left_(std::move(left)), right_(std::move(right)) {
    assert(left_->arity() == right_->arity());
  }

  Relation Eval(const Instance& db) const override {
    Relation l = left_->Eval(db);
    Relation r = right_->Eval(db);
    Relation out(arity());
    for (const Tuple& t : l) {
      if (!r.Contains(t)) out.Insert(t);
    }
    return out;
  }

 private:
  RaExprPtr left_;
  RaExprPtr right_;
};

class AdomExpr final : public RaExpr {
 public:
  AdomExpr(int k, std::vector<Value> extra)
      : RaExpr(k), extra_(std::move(extra)) {
    assert(k >= 0);
  }

  Relation Eval(const Instance& db) const override {
    std::set<Value> dom = db.ActiveDomain();
    dom.insert(extra_.begin(), extra_.end());
    std::vector<Value> values(dom.begin(), dom.end());
    Relation out(arity());
    Tuple t(static_cast<size_t>(arity()));
    FillFrom(values, 0, &t, &out);
    return out;
  }

 private:
  static void FillFrom(const std::vector<Value>& values, int pos, Tuple* t,
                       Relation* out) {
    if (pos == static_cast<int>(t->size())) {
      out->Insert(*t);
      return;
    }
    for (Value v : values) {
      (*t)[static_cast<size_t>(pos)] = v;
      FillFrom(values, pos + 1, t, out);
    }
  }

  std::vector<Value> extra_;
};

}  // namespace

RaExprPtr Scan(PredId p, int arity) {
  return std::make_shared<ScanExpr>(p, arity);
}
RaExprPtr ConstRel(Relation rel) {
  return std::make_shared<ConstExpr>(std::move(rel));
}
RaExprPtr Project(RaExprPtr child, std::vector<int> cols) {
  return std::make_shared<ProjectExpr>(std::move(child), std::move(cols));
}
RaExprPtr Select(RaExprPtr child, std::vector<SelCondition> conds) {
  return std::make_shared<SelectExpr>(std::move(child), std::move(conds));
}
RaExprPtr Product(RaExprPtr left, RaExprPtr right) {
  return std::make_shared<ProductExpr>(std::move(left), std::move(right));
}
RaExprPtr Join(RaExprPtr left, RaExprPtr right,
               std::vector<std::pair<int, int>> eq_cols) {
  return std::make_shared<JoinExpr>(std::move(left), std::move(right),
                                    std::move(eq_cols));
}
RaExprPtr Union(RaExprPtr left, RaExprPtr right) {
  return std::make_shared<UnionExpr>(std::move(left), std::move(right));
}
RaExprPtr Diff(RaExprPtr left, RaExprPtr right) {
  return std::make_shared<DiffExpr>(std::move(left), std::move(right));
}
RaExprPtr Adom(int k, std::vector<Value> extra) {
  return std::make_shared<AdomExpr>(k, std::move(extra));
}

}  // namespace ra
}  // namespace datalog
