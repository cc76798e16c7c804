#include "reldb/sql.h"

#include <cctype>
#include <cmath>
#include <functional>
#include <optional>
#include <utility>

#include "reldb/expr_vm.h"

namespace mlbench::reldb {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind {
    kIdent,   // possibly qualified (a.b) or versioned (name[3])
    kNumber,
    kComma,
    kLParen,
    kRParen,
    kStar,
    kPlus,
    kMinus,
    kSlash,
    kDot,
    kCmp,  // = < > <= >= <>
    kHint,  // /*+ scale(N) */  (value in num)
    kEnd,
  };
  Kind kind = Kind::kEnd;
  std::string text;
  double num = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& in) : in_(in) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (true) {
      SkipSpaceAndComments();
      if (pos_ >= in_.size() || in_[pos_] == ';') break;
      char c = in_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(Ident());
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' &&
                  pos_ + 1 < in_.size() &&
                  std::isdigit(static_cast<unsigned char>(in_[pos_ + 1])))) {
        out.push_back(Number());
      } else if (c == '/' && pos_ + 2 < in_.size() && in_[pos_ + 1] == '*' &&
                 in_[pos_ + 2] == '+') {
        MLBENCH_ASSIGN_OR_RETURN(Token t, Hint());
        out.push_back(std::move(t));
      } else {
        MLBENCH_ASSIGN_OR_RETURN(Token t, Symbol());
        out.push_back(std::move(t));
      }
    }
    out.push_back(Token{});
    return out;
  }

 private:
  void SkipSpaceAndComments() {
    while (pos_ < in_.size()) {
      char c = in_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '-' && pos_ + 1 < in_.size() && in_[pos_ + 1] == '-') {
        while (pos_ < in_.size() && in_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < in_.size() && in_[pos_ + 1] == '*' &&
                 !(pos_ + 2 < in_.size() && in_[pos_ + 2] == '+')) {
        pos_ += 2;
        while (pos_ + 1 < in_.size() &&
               !(in_[pos_] == '*' && in_[pos_ + 1] == '/')) {
          ++pos_;
        }
        pos_ += 2;
      } else {
        break;
      }
    }
  }

  Token Ident() {
    Token t;
    t.kind = Token::Kind::kIdent;
    while (pos_ < in_.size() &&
           (std::isalnum(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '_')) {
      t.text += in_[pos_++];
    }
    // Versioned-table suffix: name[3].
    if (pos_ < in_.size() && in_[pos_] == '[') {
      while (pos_ < in_.size() && in_[pos_] != ']') t.text += in_[pos_++];
      if (pos_ < in_.size()) t.text += in_[pos_++];
    }
    return t;
  }

  Token Number() {
    Token t;
    t.kind = Token::Kind::kNumber;
    std::size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '.' || in_[pos_] == 'e' || in_[pos_] == 'E' ||
            ((in_[pos_] == '+' || in_[pos_] == '-') &&
             (in_[pos_ - 1] == 'e' || in_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    t.text = in_.substr(start, pos_ - start);
    t.num = std::stod(t.text);
    return t;
  }

  Result<Token> Hint() {
    // /*+ scale(123.0) */
    std::size_t end = in_.find("*/", pos_);
    if (end == std::string::npos) {
      return Status::InvalidArgument("unterminated hint comment");
    }
    std::string body = in_.substr(pos_ + 3, end - pos_ - 3);
    pos_ = end + 2;
    std::size_t lp = body.find('(');
    std::size_t rp = body.find(')');
    if (body.find("scale") == std::string::npos || lp == std::string::npos ||
        rp == std::string::npos) {
      return Status::InvalidArgument("unsupported hint: " + body);
    }
    Token t;
    t.kind = Token::Kind::kHint;
    t.num = std::stod(body.substr(lp + 1, rp - lp - 1));
    return t;
  }

  Result<Token> Symbol() {
    Token t;
    char c = in_[pos_++];
    switch (c) {
      case ',':
        t.kind = Token::Kind::kComma;
        return t;
      case '(':
        t.kind = Token::Kind::kLParen;
        return t;
      case ')':
        t.kind = Token::Kind::kRParen;
        return t;
      case '*':
        t.kind = Token::Kind::kStar;
        return t;
      case '+':
        t.kind = Token::Kind::kPlus;
        return t;
      case '-':
        t.kind = Token::Kind::kMinus;
        return t;
      case '/':
        t.kind = Token::Kind::kSlash;
        return t;
      case '.':
        t.kind = Token::Kind::kDot;
        return t;
      case '=':
        t.kind = Token::Kind::kCmp;
        t.text = "=";
        return t;
      case '<':
        t.kind = Token::Kind::kCmp;
        t.text = "<";
        if (pos_ < in_.size() && (in_[pos_] == '=' || in_[pos_] == '>')) {
          t.text += in_[pos_++];
        }
        return t;
      case '>':
        t.kind = Token::Kind::kCmp;
        t.text = ">";
        if (pos_ < in_.size() && in_[pos_] == '=') t.text += in_[pos_++];
        return t;
      default:
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "' in SQL");
    }
  }

  const std::string& in_;
  std::size_t pos_ = 0;
};

std::string Lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

struct Expr {
  enum class Kind { kColumn, kNumber, kBinary, kFunc } kind = Kind::kNumber;
  std::string column;  // qualified ("t.col") or plain
  double num = 0;
  char op = 0;
  std::string func;
  std::vector<Expr> kids;
};

struct SelectItem {
  Expr expr;
  std::string alias;
  bool is_agg = false;
  AggOp agg = AggOp::kSum;
  bool count_star = false;
  // Post-aggregation arithmetic (SimSQL's "COUNT(*) + clus.pi_prior"):
  // the aggregate result is combined with a per-group expression whose
  // inputs are functionally dependent on the group keys.
  char post_op = 0;
  std::optional<Expr> post_expr;
};

struct TableRef {
  std::string name;
  std::string alias;
};

struct Pred {
  Expr lhs, rhs;
  std::string cmp;
};

struct SelectStmt {
  double scale_hint = -1;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  std::vector<Pred> where;
  std::vector<std::string> group_by;
  // WITH alias AS VgName(subquery) [PER (cols)]
  bool has_vg = false;
  std::string vg_alias, vg_name;
  std::shared_ptr<SelectStmt> vg_input;
  std::vector<std::string> vg_per;
};

struct Statement {
  enum class Kind { kSelect, kCreateTable, kCreateView } kind = Kind::kSelect;
  std::string target;
  std::vector<std::string> target_cols;
  SelectStmt select;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (IsKeyword("create")) {
      Next();
      bool view = IsKeyword("view");
      if (!view && !IsKeyword("table")) {
        return Status::InvalidArgument("expected TABLE or VIEW after CREATE");
      }
      Next();
      stmt.kind = view ? Statement::Kind::kCreateView
                       : Statement::Kind::kCreateTable;
      if (Cur().kind != Token::Kind::kIdent) {
        return Status::InvalidArgument("expected table name");
      }
      stmt.target = Cur().text;
      Next();
      if (Cur().kind == Token::Kind::kLParen) {
        Next();
        while (Cur().kind == Token::Kind::kIdent) {
          stmt.target_cols.push_back(Cur().text);
          Next();
          if (Cur().kind == Token::Kind::kComma) Next();
        }
        MLBENCH_RETURN_NOT_OK(Expect(Token::Kind::kRParen, ")"));
      }
      if (!IsKeyword("as")) {
        return Status::InvalidArgument("expected AS in CREATE ... AS");
      }
      Next();
    }
    MLBENCH_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
    return stmt;
  }

 private:
  const Token& Cur() const { return toks_[pos_]; }
  void Next() { ++pos_; }
  bool IsKeyword(const std::string& kw) const {
    return Cur().kind == Token::Kind::kIdent && Lower(Cur().text) == kw;
  }
  Status Expect(Token::Kind kind, const std::string& what) {
    if (Cur().kind != kind) {
      return Status::InvalidArgument("expected " + what);
    }
    Next();
    return Status::OK();
  }

  Result<SelectStmt> ParseSelect() {
    SelectStmt s;
    if (IsKeyword("with")) {
      Next();
      s.has_vg = true;
      if (Cur().kind != Token::Kind::kIdent) {
        return Status::InvalidArgument("expected alias after WITH");
      }
      s.vg_alias = Cur().text;
      Next();
      if (!IsKeyword("as")) {
        return Status::InvalidArgument("expected AS in WITH clause");
      }
      Next();
      if (Cur().kind != Token::Kind::kIdent) {
        return Status::InvalidArgument("expected VG function name");
      }
      s.vg_name = Cur().text;
      Next();
      MLBENCH_RETURN_NOT_OK(Expect(Token::Kind::kLParen, "("));
      MLBENCH_ASSIGN_OR_RETURN(SelectStmt inner, ParseSelect());
      s.vg_input = std::make_shared<SelectStmt>(std::move(inner));
      MLBENCH_RETURN_NOT_OK(Expect(Token::Kind::kRParen, ")"));
      if (IsKeyword("per")) {
        Next();
        MLBENCH_RETURN_NOT_OK(Expect(Token::Kind::kLParen, "("));
        while (Cur().kind == Token::Kind::kIdent) {
          s.vg_per.push_back(Cur().text);
          Next();
          if (Cur().kind == Token::Kind::kComma) Next();
        }
        MLBENCH_RETURN_NOT_OK(Expect(Token::Kind::kRParen, ")"));
      }
    }
    if (!IsKeyword("select")) {
      return Status::InvalidArgument("expected SELECT");
    }
    Next();
    if (Cur().kind == Token::Kind::kHint) {
      s.scale_hint = Cur().num;
      Next();
    }
    // Select list.
    while (true) {
      MLBENCH_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      s.items.push_back(std::move(item));
      if (Cur().kind != Token::Kind::kComma) break;
      Next();
    }
    if (!IsKeyword("from")) {
      return Status::InvalidArgument("expected FROM");
    }
    Next();
    while (true) {
      TableRef ref;
      if (Cur().kind != Token::Kind::kIdent) {
        return Status::InvalidArgument("expected table name in FROM");
      }
      ref.name = Cur().text;
      Next();
      if (Cur().kind == Token::Kind::kIdent && !IsKeyword("where") &&
          !IsKeyword("group") && !IsKeyword("from") && !IsKeyword("per") &&
          !IsKeyword("select")) {
        ref.alias = Cur().text;
        Next();
      } else {
        ref.alias = ref.name;
      }
      s.from.push_back(std::move(ref));
      if (Cur().kind != Token::Kind::kComma) break;
      Next();
    }
    if (IsKeyword("where")) {
      Next();
      while (true) {
        Pred p;
        MLBENCH_ASSIGN_OR_RETURN(p.lhs, ParseExpr());
        if (Cur().kind != Token::Kind::kCmp) {
          return Status::InvalidArgument("expected comparison in WHERE");
        }
        p.cmp = Cur().text;
        Next();
        MLBENCH_ASSIGN_OR_RETURN(p.rhs, ParseExpr());
        s.where.push_back(std::move(p));
        if (!IsKeyword("and")) break;
        Next();
      }
    }
    if (IsKeyword("group")) {
      Next();
      if (!IsKeyword("by")) {
        return Status::InvalidArgument("expected BY after GROUP");
      }
      Next();
      while (Cur().kind == Token::Kind::kIdent) {
        std::string col = Cur().text;
        Next();
        if (Cur().kind == Token::Kind::kDot) {
          Next();
          if (Cur().kind != Token::Kind::kIdent) {
            return Status::InvalidArgument("expected column after '.'");
          }
          col += "." + Cur().text;
          Next();
        }
        s.group_by.push_back(std::move(col));
        if (Cur().kind != Token::Kind::kComma) break;
        Next();
      }
    }
    return s;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    static const std::map<std::string, AggOp> kAggs = {
        {"sum", AggOp::kSum},   {"count", AggOp::kCount},
        {"avg", AggOp::kAvg},   {"min", AggOp::kMin},
        {"max", AggOp::kMax}};
    if (Cur().kind == Token::Kind::kIdent &&
        kAggs.contains(Lower(Cur().text)) && Peek().kind ==
        Token::Kind::kLParen) {
      item.is_agg = true;
      item.agg = kAggs.at(Lower(Cur().text));
      Next();
      Next();  // (
      if (Cur().kind == Token::Kind::kStar) {
        item.count_star = true;
        Next();
      } else {
        MLBENCH_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      }
      MLBENCH_RETURN_NOT_OK(Expect(Token::Kind::kRParen, ")"));
      // Optional post-aggregation arithmetic.
      if (Cur().kind == Token::Kind::kPlus ||
          Cur().kind == Token::Kind::kMinus ||
          Cur().kind == Token::Kind::kStar ||
          Cur().kind == Token::Kind::kSlash) {
        switch (Cur().kind) {
          case Token::Kind::kPlus:
            item.post_op = '+';
            break;
          case Token::Kind::kMinus:
            item.post_op = '-';
            break;
          case Token::Kind::kStar:
            item.post_op = '*';
            break;
          default:
            item.post_op = '/';
            break;
        }
        Next();
        MLBENCH_ASSIGN_OR_RETURN(Expr post, ParseExpr());
        item.post_expr = std::move(post);
      }
    } else {
      MLBENCH_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    }
    if (IsKeyword("as")) {
      Next();
      if (Cur().kind != Token::Kind::kIdent) {
        return Status::InvalidArgument("expected alias after AS");
      }
      item.alias = Cur().text;
      Next();
    }
    return item;
  }

  const Token& Peek() const {
    return pos_ + 1 < toks_.size() ? toks_[pos_ + 1] : toks_.back();
  }

  // expr := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)*
  Result<Expr> ParseExpr() {
    MLBENCH_ASSIGN_OR_RETURN(Expr lhs, ParseTerm());
    while (Cur().kind == Token::Kind::kPlus ||
           Cur().kind == Token::Kind::kMinus) {
      char op = Cur().kind == Token::Kind::kPlus ? '+' : '-';
      Next();
      MLBENCH_ASSIGN_OR_RETURN(Expr rhs, ParseTerm());
      Expr bin;
      bin.kind = Expr::Kind::kBinary;
      bin.op = op;
      bin.kids.push_back(std::move(lhs));
      bin.kids.push_back(std::move(rhs));
      lhs = std::move(bin);
    }
    return lhs;
  }

  Result<Expr> ParseTerm() {
    MLBENCH_ASSIGN_OR_RETURN(Expr lhs, ParseFactor());
    while (Cur().kind == Token::Kind::kStar ||
           Cur().kind == Token::Kind::kSlash) {
      char op = Cur().kind == Token::Kind::kStar ? '*' : '/';
      Next();
      MLBENCH_ASSIGN_OR_RETURN(Expr rhs, ParseFactor());
      Expr bin;
      bin.kind = Expr::Kind::kBinary;
      bin.op = op;
      bin.kids.push_back(std::move(lhs));
      bin.kids.push_back(std::move(rhs));
      lhs = std::move(bin);
    }
    return lhs;
  }

  Result<Expr> ParseFactor() {
    Expr e;
    if (Cur().kind == Token::Kind::kNumber) {
      e.kind = Expr::Kind::kNumber;
      e.num = Cur().num;
      Next();
      return e;
    }
    if (Cur().kind == Token::Kind::kMinus) {
      Next();
      MLBENCH_ASSIGN_OR_RETURN(Expr inner, ParseFactor());
      Expr zero;
      zero.kind = Expr::Kind::kNumber;
      zero.num = 0;
      e.kind = Expr::Kind::kBinary;
      e.op = '-';
      e.kids.push_back(std::move(zero));
      e.kids.push_back(std::move(inner));
      return e;
    }
    if (Cur().kind == Token::Kind::kLParen) {
      Next();
      MLBENCH_ASSIGN_OR_RETURN(e, ParseExpr());
      MLBENCH_RETURN_NOT_OK(Expect(Token::Kind::kRParen, ")"));
      return e;
    }
    if (Cur().kind == Token::Kind::kIdent) {
      std::string name = Cur().text;
      Next();
      if (Cur().kind == Token::Kind::kLParen &&
          (Lower(name) == "sqrt" || Lower(name) == "exp" ||
           Lower(name) == "log" || Lower(name) == "abs")) {
        Next();
        e.kind = Expr::Kind::kFunc;
        e.func = Lower(name);
        MLBENCH_ASSIGN_OR_RETURN(Expr arg, ParseExpr());
        e.kids.push_back(std::move(arg));
        MLBENCH_RETURN_NOT_OK(Expect(Token::Kind::kRParen, ")"));
        return e;
      }
      if (Cur().kind == Token::Kind::kDot) {
        Next();
        if (Cur().kind != Token::Kind::kIdent) {
          return Status::InvalidArgument("expected column after '.'");
        }
        name += "." + Cur().text;
        Next();
      }
      e.kind = Expr::Kind::kColumn;
      e.column = name;
      return e;
    }
    return Status::InvalidArgument("unexpected token in expression");
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Compiler / executor
// ---------------------------------------------------------------------------

/// Resolves a (possibly qualified) column reference against a schema whose
/// names are "alias.col".
Result<std::size_t> ResolveColumn(const Schema& schema,
                                  const std::string& ref) {
  std::optional<std::size_t> found;
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const std::string& name = schema.name(i);
    bool match = name == ref;
    if (!match && ref.find('.') == std::string::npos) {
      // Unqualified: match the suffix after the alias.
      std::size_t dot = name.rfind('.');
      match = dot != std::string::npos && name.substr(dot + 1) == ref;
    }
    if (match) {
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column: " + ref);
      }
      found = i;
    }
  }
  if (!found.has_value()) {
    return Status::InvalidArgument("unknown column: " + ref);
  }
  return *found;
}

/// Lowers an AST expression to a structured ScalarExpr over rows of
/// `schema`: column references resolve to indices, operators and function
/// names to opcodes — all at plan time, never per row. The result compiles
/// into the bytecode VM (expr_vm.h) inside Rel::Filter / ColExpr::Expr.
Result<ScalarExpr> LowerExpr(const Expr& e, const Schema& schema) {
  switch (e.kind) {
    case Expr::Kind::kNumber:
      return ScalarExpr::Const(e.num);
    case Expr::Kind::kColumn: {
      MLBENCH_ASSIGN_OR_RETURN(std::size_t idx,
                               ResolveColumn(schema, e.column));
      return ScalarExpr::Col(idx);
    }
    case Expr::Kind::kBinary: {
      MLBENCH_ASSIGN_OR_RETURN(ScalarExpr lhs, LowerExpr(e.kids[0], schema));
      MLBENCH_ASSIGN_OR_RETURN(ScalarExpr rhs, LowerExpr(e.kids[1], schema));
      switch (e.op) {
        case '+':
          return ScalarExpr::Add(std::move(lhs), std::move(rhs));
        case '-':
          return ScalarExpr::Sub(std::move(lhs), std::move(rhs));
        case '*':
          return ScalarExpr::Mul(std::move(lhs), std::move(rhs));
        default:
          return ScalarExpr::Div(std::move(lhs), std::move(rhs));
      }
    }
    case Expr::Kind::kFunc: {
      MLBENCH_ASSIGN_OR_RETURN(ScalarExpr arg, LowerExpr(e.kids[0], schema));
      ScalarExpr::Fn1 fn = ScalarExpr::Fn1::kAbs;
      if (e.func == "sqrt") fn = ScalarExpr::Fn1::kSqrt;
      if (e.func == "exp") fn = ScalarExpr::Fn1::kExp;
      if (e.func == "log") fn = ScalarExpr::Fn1::kLog;
      return ScalarExpr::Call(fn, std::move(arg));
    }
  }
  return Status::Internal("unreachable expression kind");
}

/// Lowers a WHERE predicate: both sides lower as expressions and the
/// comparison operator resolves to its opcode once, at plan time — there
/// is no per-row string comparison.
Result<ScalarExpr> LowerPred(const Pred& p, const Schema& schema) {
  MLBENCH_ASSIGN_OR_RETURN(ScalarExpr lhs, LowerExpr(p.lhs, schema));
  MLBENCH_ASSIGN_OR_RETURN(ScalarExpr rhs, LowerExpr(p.rhs, schema));
  ScalarExpr::CmpOp op;
  if (p.cmp == "=") {
    op = ScalarExpr::CmpOp::kEq;
  } else if (p.cmp == "<") {
    op = ScalarExpr::CmpOp::kLt;
  } else if (p.cmp == ">") {
    op = ScalarExpr::CmpOp::kGt;
  } else if (p.cmp == "<=") {
    op = ScalarExpr::CmpOp::kLe;
  } else if (p.cmp == ">=") {
    op = ScalarExpr::CmpOp::kGe;
  } else {  // <>
    op = ScalarExpr::CmpOp::kNe;
  }
  return ScalarExpr::Compare(op, std::move(lhs), std::move(rhs));
}

/// Column name an expression naturally carries (for output schemas).
std::string ExprName(const Expr& e, int ordinal) {
  if (e.kind == Expr::Kind::kColumn) {
    std::size_t dot = e.column.rfind('.');
    return dot == std::string::npos ? e.column : e.column.substr(dot + 1);
  }
  return "col" + std::to_string(ordinal);
}


class Evaluator {
 public:
  explicit Evaluator(SqlContext* ctx) : ctx_(ctx) {}

  Result<Rel> Eval(const SelectStmt& s) {
    Database& db = ctx_->db();

    // 1. WITH <alias> AS Vg(<subquery>): evaluate the parameter query and
    //    apply the VG; the result joins the FROM namespace under alias.
    std::optional<Rel> vg_rel;
    if (s.has_vg) {
      VgFunction* vg = ctx_->FindVg(s.vg_name);
      if (vg == nullptr) {
        return Status::NotFound("unregistered VG function: " + s.vg_name);
      }
      MLBENCH_ASSIGN_OR_RETURN(Rel input, Eval(*s.vg_input));
      double out_scale =
          s.scale_hint > 0 ? s.scale_hint
                           : (s.vg_per.empty() ? 1.0 : input.scale());
      Rel applied = input.VgApply(*vg, s.vg_per, out_scale);
      // Qualify the VG output columns with the alias.
      std::vector<std::string> cols;
      for (const auto& c : applied.schema().columns()) {
        cols.push_back(s.vg_alias + "." + c);
      }
      vg_rel = applied.Renamed(Schema(std::move(cols)));
    }

    // 2. FROM: scan each table (or bind the VG alias), qualify columns.
    if (s.from.empty()) {
      return Status::InvalidArgument("FROM clause is required");
    }
    std::optional<Rel> plan;
    std::vector<Pred> remaining = s.where;
    for (const auto& ref : s.from) {
      if (!(s.has_vg && ref.name == s.vg_alias) && !db.Exists(ref.name)) {
        return Status::NotFound("no such table: " + ref.name);
      }
      Rel next = [&]() -> Rel {
        if (s.has_vg && ref.name == s.vg_alias) return *vg_rel;
        Rel scan = Rel::Scan(db, ref.name);
        std::vector<std::string> cols;
        for (const auto& c : scan.schema().columns()) {
          cols.push_back(ref.alias + "." + c);
        }
        return scan.Renamed(Schema(std::move(cols)));
      }();
      if (!plan.has_value()) {
        plan = next;
        continue;
      }
      // Find equality predicates connecting `plan` and `next`.
      std::vector<std::string> lkeys, rkeys;
      std::vector<Pred> still;
      for (auto& p : remaining) {
        bool used = false;
        if (p.cmp == "=" && p.lhs.kind == Expr::Kind::kColumn &&
            p.rhs.kind == Expr::Kind::kColumn) {
          bool l_in_plan = ResolveColumn(plan->schema(), p.lhs.column).ok();
          bool r_in_next = ResolveColumn(next.schema(), p.rhs.column).ok();
          bool r_in_plan = ResolveColumn(plan->schema(), p.rhs.column).ok();
          bool l_in_next = ResolveColumn(next.schema(), p.lhs.column).ok();
          if (l_in_plan && r_in_next && !r_in_plan) {
            lkeys.push_back(p.lhs.column);
            rkeys.push_back(p.rhs.column);
            used = true;
          } else if (r_in_plan && l_in_next && !l_in_plan) {
            lkeys.push_back(p.rhs.column);
            rkeys.push_back(p.lhs.column);
            used = true;
          }
        }
        if (!used) still.push_back(std::move(p));
      }
      remaining = std::move(still);
      // Resolve the unqualified join keys to the qualified schema names
      // that HashJoin needs.
      std::vector<std::string> lq, rq;
      for (std::size_t i = 0; i < lkeys.size(); ++i) {
        MLBENCH_ASSIGN_OR_RETURN(std::size_t li,
                                 ResolveColumn(plan->schema(), lkeys[i]));
        MLBENCH_ASSIGN_OR_RETURN(std::size_t ri,
                                 ResolveColumn(next.schema(), rkeys[i]));
        lq.push_back(plan->schema().name(li));
        rq.push_back(next.schema().name(ri));
      }
      double out_scale = std::max(plan->scale(), next.scale());
      plan = plan->HashJoin(next, lq, rq, out_scale);
    }

    // 3. Residual WHERE predicates become compiled filters.
    for (const auto& p : remaining) {
      MLBENCH_ASSIGN_OR_RETURN(ScalarExpr pred,
                               LowerPred(p, plan->schema()));
      plan = plan->Filter(pred);
    }

    // 4. Aggregation or plain projection.
    bool any_agg = false;
    for (const auto& item : s.items) any_agg = any_agg || item.is_agg;
    if (!s.group_by.empty() || any_agg) {
      return EvalAggregate(s, *plan);
    }
    return EvalProjection(s, *plan);
  }

 private:
  Result<Rel> EvalProjection(const SelectStmt& s, const Rel& in) {
    // Structured project: column references pass through (preserving
    // integer values and sharing their column storage);
    // everything else compiles to a computed double column.
    std::vector<ColExpr> exprs;
    std::vector<std::string> names;
    for (std::size_t i = 0; i < s.items.size(); ++i) {
      const auto& item = s.items[i];
      names.push_back(item.alias.empty()
                          ? ExprName(item.expr, static_cast<int>(i))
                          : item.alias);
      if (item.expr.kind == Expr::Kind::kColumn) {
        auto idx = ResolveColumn(in.schema(), item.expr.column);
        if (idx.ok()) {
          exprs.push_back(ColExpr::Col(*idx));
          continue;
        }
      }
      MLBENCH_ASSIGN_OR_RETURN(ScalarExpr lowered,
                               LowerExpr(item.expr, in.schema()));
      exprs.push_back(ColExpr::Expr(lowered));
    }
    return in.Project(Schema(std::move(names)), exprs);
  }

  Result<Rel> EvalAggregate(const SelectStmt& s, const Rel& in) {
    // Pre-project: group keys first, then one computed column per
    // aggregated expression, preserving integer keys.
    std::vector<std::string> key_names;
    std::vector<int> key_idx;
    for (const auto& g : s.group_by) {
      MLBENCH_ASSIGN_OR_RETURN(std::size_t idx, ResolveColumn(in.schema(), g));
      key_idx.push_back(static_cast<int>(idx));
      std::size_t dot = in.schema().name(idx).rfind('.');
      key_names.push_back(dot == std::string::npos
                              ? in.schema().name(idx)
                              : in.schema().name(idx).substr(dot + 1));
    }
    std::vector<ScalarExpr> agg_evals;
    std::vector<Agg> aggs;
    std::vector<std::string> out_names = key_names;
    // Post-aggregation arithmetic: per output aggregate, an optional
    // (op, hidden-column index) pair; the hidden column carries the
    // group-dependent expression via a kMax aggregate (any row's value,
    // since it is functionally dependent on the keys).
    struct PostFix {
      std::size_t agg_index;
      char op;
      std::size_t hidden_index;
    };
    std::vector<PostFix> post_fixes;
    int agg_ordinal = 0;
    for (std::size_t i = 0; i < s.items.size(); ++i) {
      const auto& item = s.items[i];
      if (!item.is_agg) {
        // Non-aggregated items must be group keys; they are already in
        // the output via key_names.
        if (item.expr.kind != Expr::Kind::kColumn) {
          return Status::InvalidArgument(
              "non-aggregate select item must be a grouping column");
        }
        continue;
      }
      std::string agg_col = "_agg" + std::to_string(agg_ordinal++);
      std::string out_name =
          item.alias.empty() ? "agg" + std::to_string(i) : item.alias;
      if (item.count_star) {
        aggs.push_back({AggOp::kCount, "", out_name});
        agg_evals.push_back(ScalarExpr::Const(1.0));
      } else {
        MLBENCH_ASSIGN_OR_RETURN(ScalarExpr lowered,
                                 LowerExpr(item.expr, in.schema()));
        aggs.push_back({item.agg, agg_col, out_name});
        agg_evals.push_back(std::move(lowered));
      }
      out_names.push_back(out_name);
      if (item.post_expr.has_value()) {
        MLBENCH_ASSIGN_OR_RETURN(ScalarExpr post,
                                 LowerExpr(*item.post_expr, in.schema()));
        std::string hidden = "_agg" + std::to_string(agg_ordinal++);
        post_fixes.push_back(
            {aggs.size() - 1, item.post_op, aggs.size()});
        aggs.push_back({AggOp::kMax, hidden, hidden});
        agg_evals.push_back(std::move(post));
      }
    }
    // Build the pre-projection schema: keys, then _agg columns.
    std::vector<std::string> pre_names = key_names;
    for (int a = 0; a < agg_ordinal; ++a) {
      pre_names.push_back("_agg" + std::to_string(a));
    }
    // Map aggs' column names onto the projected _agg columns; count-star
    // entries keep their empty column.
    std::vector<ColExpr> pre_exprs;
    for (int k : key_idx) pre_exprs.push_back(ColExpr::Col(k));
    for (const auto& eval : agg_evals) pre_exprs.push_back(ColExpr::Expr(eval));
    Rel pre = in.Project(Schema(pre_names), pre_exprs);
    // Rewire count-star aggregates: they consumed an eval slot producing
    // 1.0, aggregate that column with kSum to keep actual/logical scaling
    // identical to kCount on the pre-projected relation.
    std::vector<Agg> final_aggs;
    int slot = 0;
    for (auto& a : aggs) {
      Agg fixed = a;
      fixed.col = "_agg" + std::to_string(slot++);
      if (a.op == AggOp::kCount) fixed.op = AggOp::kCount;
      final_aggs.push_back(fixed);
    }
    double out_scale = s.scale_hint > 0 ? s.scale_hint : 1.0;
    Rel grouped = pre.GroupBy(key_names, final_aggs, out_scale);
    if (post_fixes.empty()) return grouped;
    // Fold the hidden post-arithmetic columns into their aggregates and
    // drop them from the output: keys and plain aggregates pass through,
    // each post-arithmetic aggregate compiles to `agg op hidden`.
    const std::size_t n_keys = key_names.size();
    std::vector<const PostFix*> fix_of(final_aggs.size(), nullptr);
    for (const auto& fix : post_fixes) {
      fix_of[fix.agg_index] = &fix;
      fix_of[fix.hidden_index] = &fix;
    }
    std::vector<std::string> final_names = key_names;
    std::vector<ColExpr> final_exprs;
    for (std::size_t k = 0; k < n_keys; ++k) {
      final_exprs.push_back(ColExpr::Col(k));
    }
    for (std::size_t a = 0; a < final_aggs.size(); ++a) {
      const PostFix* fix = fix_of[a];
      if (fix != nullptr && fix->hidden_index == a) continue;
      final_names.push_back(final_aggs[a].out_name);
      if (fix == nullptr) {
        final_exprs.push_back(ColExpr::Col(n_keys + a));
        continue;
      }
      ScalarExpr::BinOp op = ScalarExpr::BinOp::kDiv;
      switch (fix->op) {
        case '+':
          op = ScalarExpr::BinOp::kAdd;
          break;
        case '-':
          op = ScalarExpr::BinOp::kSub;
          break;
        case '*':
          op = ScalarExpr::BinOp::kMul;
          break;
      }
      final_exprs.push_back(ColExpr::Expr(
          ScalarExpr::Bin(op, ScalarExpr::Col(n_keys + a),
                          ScalarExpr::Col(n_keys + fix->hidden_index))));
    }
    return grouped.Project(Schema(std::move(final_names)), final_exprs);
  }

  SqlContext* ctx_;
};

}  // namespace

Result<Table> SqlContext::Execute(const std::string& sql) {
  Lexer lexer(sql);
  MLBENCH_ASSIGN_OR_RETURN(std::vector<Token> toks, lexer.Run());
  Parser parser(std::move(toks));
  MLBENCH_ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());

  db_->BeginQuery(stmt.kind == Statement::Kind::kSelect ? "sql select"
                                                        : "sql " + stmt.target);
  Evaluator evaluator(this);
  auto rel = evaluator.Eval(stmt.select);
  if (!rel.ok()) {
    db_->EndQuery();
    return rel.status();
  }

  Rel result = *rel;
  if (!stmt.target_cols.empty()) {
    if (stmt.target_cols.size() != result.schema().size()) {
      db_->EndQuery();
      return Status::InvalidArgument(
          "CREATE column list does not match the SELECT arity");
    }
    result = result.Renamed(Schema(stmt.target_cols));
  }
  if (stmt.kind != Statement::Kind::kSelect) {
    result.Materialize(stmt.target);
  }
  db_->EndQuery();
  return result.ToTable();
}

std::string SqlContext::BindIteration(const std::string& sql_template,
                                      int i) {
  std::string out = sql_template;
  auto replace_all = [&out](const std::string& from, const std::string& to) {
    std::size_t pos = 0;
    while ((pos = out.find(from, pos)) != std::string::npos) {
      out.replace(pos, from.size(), to);
      pos += to.size();
    }
  };
  replace_all("[i-1]", "[" + std::to_string(i - 1) + "]");
  replace_all("[i+1]", "[" + std::to_string(i + 1) + "]");
  replace_all("[i]", "[" + std::to_string(i) + "]");
  return out;
}

}  // namespace mlbench::reldb
