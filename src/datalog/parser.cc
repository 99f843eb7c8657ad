#include "datalog/parser.h"

#include <algorithm>
#include <utility>

#include "datalog/lexer.h"

namespace dcdatalog {
namespace {

// Local helper: propagate Status out of both Status- and Result-returning
// parser methods.
#define DCD_RETURN_IF_ERROR_R(expr)              \
  do {                                           \
    ::dcdatalog::Status _s = (expr);             \
    if (!_s.ok()) return _s;                     \
  } while (false)

class Parser {
 public:
  Parser(std::vector<Token> tokens, StringDict* dict)
      : tokens_(std::move(tokens)), dict_(dict) {}

  Result<Program> Parse() {
    Program program;
    while (!At(TokenKind::kEof)) {
      if (At(TokenKind::kDot)) {
        DCD_RETURN_IF_ERROR_R(ParseDirective(&program));
      } else {
        DCD_RETURN_IF_ERROR_R(ParseRule(&program));
      }
    }
    return program;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  bool At(TokenKind kind) const { return Peek().kind == kind; }

  const Token& Advance() { return tokens_[pos_++]; }

  bool Accept(TokenKind kind) {
    if (!At(kind)) return false;
    ++pos_;
    return true;
  }

  Status Expect(TokenKind kind, const char* context) {
    if (At(kind)) {
      ++pos_;
      return Status::OK();
    }
    return Status::ParseError(std::string("expected ") + TokenKindName(kind) +
                              " in " + context + ", found '" + Peek().text +
                              "' (" + TokenKindName(Peek().kind) +
                              ") at line " + std::to_string(Peek().line));
  }

  Status ParseDirective(Program* program) {
    DCD_RETURN_IF_ERROR_R(Expect(TokenKind::kDot, "directive"));
    if (!At(TokenKind::kIdent)) {
      return Status::ParseError("expected directive name after '.' at line " +
                                std::to_string(Peek().line));
    }
    std::string name = Advance().text;
    if (name != "input" && name != "output") {
      return Status::ParseError("unknown directive '." + name + "' at line " +
                                std::to_string(Peek().line));
    }
    if (!At(TokenKind::kIdent)) {
      return Status::ParseError("expected relation name after '." + name +
                                "' at line " + std::to_string(Peek().line));
    }
    std::string relation = Advance().text;
    if (name == "input") {
      program->inputs.push_back(relation);
    } else {
      program->outputs.push_back(relation);
    }
    return Status::OK();
  }

  Status ParseRule(Program* program) {
    Rule rule;
    rule.line = Peek().line;
    DCD_RETURN_IF_ERROR_R(ParseHead(&rule.head));
    if (Accept(TokenKind::kImplies)) {
      do {
        BodyLiteral lit;
        DCD_RETURN_IF_ERROR_R(ParseBodyLiteral(&lit));
        rule.body.push_back(std::move(lit));
      } while (Accept(TokenKind::kComma));
    }
    DCD_RETURN_IF_ERROR_R(Expect(TokenKind::kDot, "rule (did you forget '.')"));
    program->rules.push_back(std::move(rule));
    return Status::OK();
  }

  Status ParseHead(RuleHead* head) {
    if (!At(TokenKind::kIdent)) {
      return Status::ParseError("expected predicate name at line " +
                                std::to_string(Peek().line));
    }
    head->predicate = Advance().text;
    DCD_RETURN_IF_ERROR_R(Expect(TokenKind::kLParen, "rule head"));
    do {
      HeadArg arg;
      DCD_RETURN_IF_ERROR_R(ParseHeadArg(&arg));
      head->args.push_back(std::move(arg));
    } while (Accept(TokenKind::kComma));
    return Expect(TokenKind::kRParen, "rule head");
  }

  Status ParseHeadArg(HeadArg* arg) {
    // Aggregate: min|max|count|sum '<' term [, term] '>'.
    if (At(TokenKind::kIdent)) {
      AggFunc agg = AggFunc::kNone;
      const std::string& name = Peek().text;
      if (name == "min") agg = AggFunc::kMin;
      if (name == "max") agg = AggFunc::kMax;
      if (name == "count") agg = AggFunc::kCount;
      if (name == "sum") agg = AggFunc::kSum;
      if (agg != AggFunc::kNone && Peek(1).kind == TokenKind::kLt) {
        int line = Peek().line;
        Advance();  // aggregate keyword
        Advance();  // '<'
        arg->agg = agg;
        bool parenthesized = Accept(TokenKind::kLParen);
        Term t;
        DCD_RETURN_IF_ERROR_R(ParseTerm(&t));
        arg->terms.push_back(std::move(t));
        while (Accept(TokenKind::kComma)) {
          Term extra;
          DCD_RETURN_IF_ERROR_R(ParseTerm(&extra));
          arg->terms.push_back(std::move(extra));
        }
        if (parenthesized) {
          DCD_RETURN_IF_ERROR_R(Expect(TokenKind::kRParen, "aggregate"));
        }
        DCD_RETURN_IF_ERROR_R(Expect(TokenKind::kGt, "aggregate"));
        // Shape checks: sum takes (contributor, value); min/max/count one.
        if (agg == AggFunc::kSum && arg->terms.size() != 2) {
          return Status::ParseError(
              "sum<> takes (contributor, value) at line " +
              std::to_string(line));
        }
        if (agg != AggFunc::kSum && arg->terms.size() != 1) {
          return Status::ParseError(std::string(AggFuncName(agg)) +
                                    "<> takes one term at line " +
                                    std::to_string(line));
        }
        return Status::OK();
      }
    }
    Term t;
    DCD_RETURN_IF_ERROR_R(ParseTerm(&t));
    arg->agg = AggFunc::kNone;
    arg->terms.push_back(std::move(t));
    return Status::OK();
  }

  Status ParseBodyLiteral(BodyLiteral* lit) {
    if (At(TokenKind::kBang)) {
      Advance();
      if (!At(TokenKind::kIdent) || Peek(1).kind != TokenKind::kLParen) {
        return Status::ParseError("expected atom after '!' at line " +
                                  std::to_string(Peek().line));
      }
      lit->kind = BodyLiteral::Kind::kAtom;
      lit->negated = true;
      return ParseAtom(&lit->atom);
    }
    if (At(TokenKind::kIdent) && Peek(1).kind == TokenKind::kLParen) {
      lit->kind = BodyLiteral::Kind::kAtom;
      return ParseAtom(&lit->atom);
    }
    lit->kind = BodyLiteral::Kind::kConstraint;
    return ParseConstraint(&lit->constraint);
  }

  Status ParseAtom(Atom* atom) {
    atom->predicate = Advance().text;
    DCD_RETURN_IF_ERROR_R(Expect(TokenKind::kLParen, "atom"));
    do {
      Term t;
      DCD_RETURN_IF_ERROR_R(ParseTerm(&t));
      atom->args.push_back(std::move(t));
    } while (Accept(TokenKind::kComma));
    return Expect(TokenKind::kRParen, "atom");
  }

  Status ParseTerm(Term* term) {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kVariable:
        *term = Term::Variable(Advance().text);
        return Status::OK();
      case TokenKind::kWildcard:
        Advance();
        *term = Term::Wildcard();
        return Status::OK();
      case TokenKind::kInt:
        *term = Term::Constant(Value::Int(Advance().int_value));
        return Status::OK();
      case TokenKind::kFloat:
        *term = Term::Constant(Value::Double(Advance().float_value));
        return Status::OK();
      case TokenKind::kString:
        *term = Term::Constant(Value::String(dict_->Intern(Advance().text)));
        return Status::OK();
      case TokenKind::kMinus: {
        Advance();
        if (At(TokenKind::kInt)) {
          *term = Term::Constant(Value::Int(-Advance().int_value));
          return Status::OK();
        }
        if (At(TokenKind::kFloat)) {
          *term = Term::Constant(Value::Double(-Advance().float_value));
          return Status::OK();
        }
        return Status::ParseError("expected number after '-' at line " +
                                  std::to_string(tok.line));
      }
      default:
        return Status::ParseError("expected term, found '" + tok.text +
                                  "' at line " + std::to_string(tok.line));
    }
  }

  Status ParseConstraint(Constraint* constraint) {
    DCD_ASSIGN_OR_RETURN(constraint->lhs, ParseExpr());
    CmpOp op;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = CmpOp::kEq;
        break;
      case TokenKind::kNe:
        op = CmpOp::kNe;
        break;
      case TokenKind::kLt:
        op = CmpOp::kLt;
        break;
      case TokenKind::kLe:
        op = CmpOp::kLe;
        break;
      case TokenKind::kGt:
        op = CmpOp::kGt;
        break;
      case TokenKind::kGe:
        op = CmpOp::kGe;
        break;
      default:
        return Status::ParseError("expected comparison operator at line " +
                                  std::to_string(Peek().line));
    }
    Advance();
    constraint->op = op;
    DCD_ASSIGN_OR_RETURN(constraint->rhs, ParseExpr());
    return Status::OK();
  }

  /// Deepest accepted expression tree, counting each parenthesis, unary
  /// minus and binary operator as one level. The parser, the later
  /// recursive walkers (analysis, planning, evaluation) and the destructor
  /// all recurse once per level, so an unbounded tree from hostile input
  /// would overflow the stack.
  static constexpr uint32_t kMaxExprDepth = 1024;

  /// A parsed expression and its depth in levels (a leaf is 1).
  struct ExprTree {
    std::unique_ptr<Expr> expr;
    uint32_t depth = 1;
  };

  static Status DepthError(int line) {
    return Status::ParseError("expression nested deeper than " +
                              std::to_string(kMaxExprDepth) +
                              " levels at line " + std::to_string(line));
  }

  /// Builds `l op r`, rejecting it when the tree grows too deep. Checked per
  /// fold: a flat chain `1+1+…` loops here without recursing, but builds
  /// a left-deep tree as deep as the chain is long.
  static Result<ExprTree> Fold(ExprOp op, ExprTree l, ExprTree r, int line) {
    const uint32_t depth = std::max(l.depth, r.depth) + 1;
    if (depth > kMaxExprDepth) return DepthError(line);
    return ExprTree{Expr::Binary(op, std::move(l.expr), std::move(r.expr)),
                    depth};
  }

  Result<std::unique_ptr<Expr>> ParseExpr() {
    DCD_ASSIGN_OR_RETURN(ExprTree tree, ParseSum(0));
    return std::move(tree.expr);
  }

  // `nesting` counts the parentheses and unary minuses enclosing the call;
  // bounding it before recursing keeps the parser's own stack in check.
  Result<ExprTree> ParseSum(uint32_t nesting) {
    DCD_ASSIGN_OR_RETURN(ExprTree lhs, ParseMul(nesting));
    while (At(TokenKind::kPlus) || At(TokenKind::kMinus)) {
      const int line = Peek().line;
      ExprOp op = Accept(TokenKind::kPlus) ? ExprOp::kAdd
                                           : (Advance(), ExprOp::kSub);
      DCD_ASSIGN_OR_RETURN(ExprTree rhs, ParseMul(nesting));
      DCD_ASSIGN_OR_RETURN(lhs, Fold(op, std::move(lhs), std::move(rhs), line));
    }
    return lhs;
  }

  Result<ExprTree> ParseMul(uint32_t nesting) {
    DCD_ASSIGN_OR_RETURN(ExprTree lhs, ParseUnary(nesting));
    while (At(TokenKind::kStar) || At(TokenKind::kSlash)) {
      const int line = Peek().line;
      ExprOp op = Accept(TokenKind::kStar) ? ExprOp::kMul
                                           : (Advance(), ExprOp::kDiv);
      DCD_ASSIGN_OR_RETURN(ExprTree rhs, ParseUnary(nesting));
      DCD_ASSIGN_OR_RETURN(lhs, Fold(op, std::move(lhs), std::move(rhs), line));
    }
    return lhs;
  }

  Result<ExprTree> ParseUnary(uint32_t nesting) {
    if (At(TokenKind::kMinus)) {
      if (nesting + 1 >= kMaxExprDepth) return DepthError(Peek().line);
      const int line = Advance().line;
      DCD_ASSIGN_OR_RETURN(ExprTree inner, ParseUnary(nesting + 1));
      if (inner.depth >= kMaxExprDepth) return DepthError(line);
      return ExprTree{Expr::Negate(std::move(inner.expr)), inner.depth + 1};
    }
    return ParsePrimary(nesting);
  }

  Result<ExprTree> ParsePrimary(uint32_t nesting) {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kVariable:
        return ExprTree{Expr::Var(Advance().text)};
      case TokenKind::kInt:
        return ExprTree{Expr::Const(Value::Int(Advance().int_value))};
      case TokenKind::kFloat:
        return ExprTree{Expr::Const(Value::Double(Advance().float_value))};
      case TokenKind::kString:
        return ExprTree{
            Expr::Const(Value::String(dict_->Intern(Advance().text)))};
      case TokenKind::kLParen: {
        if (nesting + 1 >= kMaxExprDepth) return DepthError(tok.line);
        Advance();
        DCD_ASSIGN_OR_RETURN(ExprTree inner, ParseSum(nesting + 1));
        DCD_RETURN_IF_ERROR_R(Expect(TokenKind::kRParen, "expression"));
        if (inner.depth >= kMaxExprDepth) return DepthError(tok.line);
        return ExprTree{std::move(inner.expr), inner.depth + 1};
      }
      default:
        return Status::ParseError("expected expression, found '" + tok.text +
                                  "' at line " + std::to_string(tok.line));
    }
  }

#undef DCD_RETURN_IF_ERROR_R

  std::vector<Token> tokens_;
  StringDict* dict_;
  size_t pos_ = 0;
};

}  // namespace

Result<Program> ParseProgram(std::string_view source, StringDict* dict) {
  DCD_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(std::move(tokens), dict);
  return parser.Parse();
}

}  // namespace dcdatalog
