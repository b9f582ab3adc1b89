//! The compiler: a recursive-descent parser that emits the CDFG as it goes.
//!
//! There is no syntax tree.  Each node is added to a [`CdfgBuilder`] the
//! moment the parser reduces its operator, so nodes appear in post order:
//! operands left to right, then the operator; for `if c then t else e`, the
//! nodes of `c`, `t` and `e`, then the multiplexor (select = the condition,
//! 1-input = the `then` value, 0-input = the `else` value).  Names resolve
//! through the builder's symbol table, and tokens map straight to
//! [`Op`]s.
//!
//! ```text
//! program     := function+
//! function    := 'func' NAME '(' ports ')' '->' '(' ports ')' '{' statement* '}'
//! ports       := [port (',' port)*]
//! port        := NAME [':' 'num' ['[' WIDTH ']']]
//! statement   := NAME '=' expression ';'
//! expression  := conditional | comparison
//! conditional := ('if' expression 'then' expression 'else')+ comparison
//! comparison  := sum [('<' | '<=' | '>' | '>=' | '==' | '!=') sum]
//! sum         := product (('+' | '-') product)*
//! product     := factor (('*' | '/') factor)*
//! factor      := '-'* primary
//! primary     := NUMBER | NAME | '(' expression ')' | conditional
//! ```
//!
//! Everything that chains is a loop: the binary operators (precedence
//! climbing), runs of unary minus and `else if` arms.  Only a parenthesis,
//! or an `if` in a condition, a `then` branch or an operand, recurses, and
//! that nesting stops at [`MAX_DEPTH`] levels, so the stack a compile
//! needs is bounded whatever the input.
//!
//! The parser pulls one token at a time from the [`Lexer`], so the file is
//! lexed only as far as it is parsed, and errors, lexical ones included,
//! are reported in source order, each at the token where it becomes
//! certain: a character outside the language where it stands, a duplicate
//! port or a reassigned name at its name, an undefined name where it is
//! read, an unassigned output at the closing `}` of its function.

use std::collections::BTreeSet;

use cdfg::{Cdfg, CdfgBuilder, NodeId, Op};

use crate::error::SilageError;
use crate::lexer::Lexer;
use crate::token::{Token, TokenKind};

/// Deepest nesting [`compile`] accepts: parentheses, plus `if`s inside a
/// condition, a `then` branch or an operand (an `else if` arm does not
/// nest).  Written programs nest a few levels; the bound only exists so
/// that a hostile file is a typed error ([`SilageError::TooDeep`]) instead
/// of a stack overflow.  It equals the sweep service's JSON nesting bound,
/// `service::json::MAX_DEPTH`.
pub const MAX_DEPTH: usize = 64;

/// Compiles a source program into a CDFG in one pass.
///
/// Every function is compiled and checked; the one named `main` is
/// returned, otherwise the first definition.
///
/// # Errors
///
/// Returns the first [`SilageError`] in source order: lexical, syntactic
/// or semantic (undefined names, reassignment, unassigned outputs, nesting
/// past [`MAX_DEPTH`], ...).
pub fn compile(source: &str) -> Result<Cdfg, SilageError> {
    let mut lexer = Lexer::new(source);
    let token = lexer.next_token()?;
    let mut parser = Parser { lexer, token, depth: 0, builder: CdfgBuilder::new("") };
    let mut chosen: Option<Cdfg> = None;
    while parser.peek().kind != TokenKind::Eof {
        let cdfg = parser.function()?;
        if chosen.as_ref().map_or(true, |c| c.name() != "main" && cdfg.name() == "main") {
            chosen = Some(cdfg);
        }
    }
    chosen.ok_or(SilageError::EmptyProgram)
}

/// The binary operator a token spells, with its binding strength:
/// comparisons 0, `+ -` 1, `* /` 2.
fn binary_op(kind: &TokenKind) -> Option<(Op, u8)> {
    Some(match kind {
        TokenKind::Lt => (Op::Lt, 0),
        TokenKind::Le => (Op::Le, 0),
        TokenKind::Gt => (Op::Gt, 0),
        TokenKind::Ge => (Op::Ge, 0),
        TokenKind::EqEq => (Op::Eq, 0),
        TokenKind::NotEq => (Op::Ne, 0),
        TokenKind::Plus => (Op::Add, 1),
        TokenKind::Minus => (Op::Sub, 1),
        TokenKind::Star => (Op::Mul, 2),
        TokenKind::Slash => (Op::Div, 2),
        _ => return None,
    })
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next token, not yet consumed; `Eof` once the input is used up.
    token: Token,
    /// Nesting level of the expression being parsed (see [`MAX_DEPTH`]).
    depth: usize,
    /// The function being compiled.
    builder: CdfgBuilder,
}

impl Parser<'_> {
    fn peek(&self) -> &Token {
        &self.token
    }

    /// Consumes the current token, pulling the next one from the lexer.
    fn advance(&mut self) -> Result<(), SilageError> {
        self.token = self.lexer.next_token()?;
        Ok(())
    }

    fn expect(&mut self, kind: &TokenKind, expected: &str) -> Result<(), SilageError> {
        if &self.peek().kind == kind {
            self.advance()?;
            Ok(())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn unexpected(&self, expected: &str) -> SilageError {
        SilageError::UnexpectedToken {
            expected: expected.to_owned(),
            found: self.peek().kind.clone(),
            line: self.peek().line,
        }
    }

    /// The name at the cursor.  The caller consumes it after checking it,
    /// so an error at the name wins over a lexical error right after it.
    fn ident(&self, what: &str) -> Result<String, SilageError> {
        match &self.peek().kind {
            TokenKind::Ident(name) => Ok(name.clone()),
            _ => Err(self.unexpected(what)),
        }
    }

    /// Compiles one function definition into a validated CDFG.
    fn function(&mut self) -> Result<Cdfg, SilageError> {
        self.expect(&TokenKind::Func, "`func`")?;
        let name = self.ident("function name")?;
        self.advance()?;
        let mut declared = BTreeSet::new();
        let mut bitwidth = None;
        self.expect(&TokenKind::LParen, "`(`")?;
        let params = self.ports(&mut declared, &mut bitwidth)?;
        self.expect(&TokenKind::RParen, "`)`")?;
        self.expect(&TokenKind::Arrow, "`->`")?;
        self.expect(&TokenKind::LParen, "`(`")?;
        let outputs = self.ports(&mut declared, &mut bitwidth)?;
        self.expect(&TokenKind::RParen, "`)`")?;
        self.expect(&TokenKind::LBrace, "`{`")?;

        // The design bitwidth is the widest declared port (default 8).
        self.builder = CdfgBuilder::with_bitwidth(name, bitwidth.unwrap_or(8));
        for param in &params {
            self.builder.input(param);
        }
        while self.peek().kind != TokenKind::RBrace {
            self.statement()?;
        }
        for output in outputs {
            let value = self
                .builder
                .lookup(&output)
                .ok_or_else(|| SilageError::UnassignedOutput(output.clone()))?;
            self.builder.output(&output, value)?;
        }
        let cdfg = std::mem::replace(&mut self.builder, CdfgBuilder::new("")).finish()?;
        self.advance()?;
        Ok(cdfg)
    }

    /// A comma-separated port list, possibly empty.  Each name must be new
    /// to `declared`; `bitwidth` keeps the widest annotation seen.
    fn ports(
        &mut self,
        declared: &mut BTreeSet<String>,
        bitwidth: &mut Option<u32>,
    ) -> Result<Vec<String>, SilageError> {
        let mut ports = Vec::new();
        if self.peek().kind == TokenKind::RParen {
            return Ok(ports);
        }
        loop {
            let name = self.ident("parameter name")?;
            if !declared.insert(name.clone()) {
                return Err(SilageError::DuplicateDeclaration(name));
            }
            self.advance()?;
            if self.peek().kind == TokenKind::Colon {
                self.advance()?;
                self.expect(&TokenKind::Num, "`num`")?;
                if self.peek().kind == TokenKind::LBracket {
                    self.advance()?;
                    match self.peek().kind {
                        TokenKind::Number(n @ 1..=64) => {
                            *bitwidth = (*bitwidth).max(Some(n as u32));
                            self.advance()?;
                        }
                        _ => return Err(self.unexpected("a bitwidth between 1 and 64")),
                    }
                    self.expect(&TokenKind::RBracket, "`]`")?;
                }
            }
            ports.push(name);
            if self.peek().kind != TokenKind::Comma {
                return Ok(ports);
            }
            self.advance()?;
        }
    }

    /// `name = expression;` binds `name` to the expression's node.
    fn statement(&mut self) -> Result<(), SilageError> {
        let line = self.peek().line;
        let name = self.ident("a statement (`name = expr;`)")?;
        if self.builder.lookup(&name).is_some() {
            return Err(SilageError::Reassignment { name, line });
        }
        self.advance()?;
        self.expect(&TokenKind::Assign, "`=`")?;
        let value = self.expression()?;
        self.expect(&TokenKind::Semicolon, "`;`")?;
        self.builder.bind(&name, value);
        Ok(())
    }

    fn expression(&mut self) -> Result<NodeId, SilageError> {
        if self.peek().kind == TokenKind::If {
            self.conditional()
        } else {
            self.comparison()
        }
    }

    /// Runs `parse` on the `(` or `if` at the cursor one nesting level
    /// deeper: the grammar's only recursion, bounded by [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<NodeId, SilageError>,
    ) -> Result<NodeId, SilageError> {
        if self.depth == MAX_DEPTH {
            return Err(SilageError::TooDeep { line: self.peek().line });
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    /// A condition or a `then` value: an `if` there nests.
    fn branch(&mut self) -> Result<NodeId, SilageError> {
        if self.peek().kind == TokenKind::If {
            self.nested(Self::conditional)
        } else {
            self.comparison()
        }
    }

    /// An `if` and its `else if` arms, as one loop: each arm's condition
    /// and `then` value in source order, then the final `else` value, then
    /// the multiplexors, innermost first.
    fn conditional(&mut self) -> Result<NodeId, SilageError> {
        let mut arms = Vec::new();
        loop {
            self.advance()?;
            let select = self.branch()?;
            self.expect(&TokenKind::Then, "`then`")?;
            let when_true = self.branch()?;
            self.expect(&TokenKind::Else, "`else`")?;
            arms.push((select, when_true));
            if self.peek().kind != TokenKind::If {
                break;
            }
        }
        let mut value = self.comparison()?;
        for (select, when_true) in arms.into_iter().rev() {
            value = self.builder.mux(select, value, when_true)?;
        }
        Ok(value)
    }

    /// `comparison`, `sum`, `product` and `factor` by precedence climbing:
    /// a left operand waits in `pending` until an operator that binds no
    /// tighter than its own arrives, so `pending` holds at most one entry
    /// per strength.  At most one comparison is taken, as the grammar says;
    /// a second one is left to the caller.
    fn comparison(&mut self) -> Result<NodeId, SilageError> {
        let mut pending: Vec<(Op, u8, NodeId)> = Vec::new();
        let mut compared = false;
        loop {
            let mut negations = 0usize;
            while self.peek().kind == TokenKind::Minus {
                self.advance()?;
                negations += 1;
            }
            let mut value = self.primary()?;
            for _ in 0..negations {
                value = self.builder.op(Op::Neg, &[value])?;
            }
            let next =
                binary_op(&self.peek().kind).filter(|&(_, strength)| strength > 0 || !compared);
            while let Some(&(op, strength, lhs)) = pending.last() {
                if next.is_some_and(|(_, next_strength)| next_strength > strength) {
                    break;
                }
                pending.pop();
                value = self.builder.op(op, &[lhs, value])?;
            }
            let Some((op, strength)) = next else {
                return Ok(value);
            };
            self.advance()?;
            compared |= strength == 0;
            pending.push((op, strength, value));
        }
    }

    fn primary(&mut self) -> Result<NodeId, SilageError> {
        let Token { kind, line } = &self.token;
        let value = match kind {
            TokenKind::Number(n) => self.builder.constant(*n),
            TokenKind::Ident(name) => self
                .builder
                .lookup(name)
                .ok_or_else(|| SilageError::UndefinedName { name: name.clone(), line: *line })?,
            TokenKind::LParen => return self.nested(Self::parenthesized),
            TokenKind::If => return self.nested(Self::conditional),
            _ => return Err(self.unexpected("an expression")),
        };
        self.advance()?;
        Ok(value)
    }

    fn parenthesized(&mut self) -> Result<NodeId, SilageError> {
        self.advance()?;
        let value = self.expression()?;
        self.expect(&TokenKind::RParen, "`)`")?;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    const ABS_DIFF: &str = r#"
        func abs_diff(a: num[8], b: num[8]) -> (abs: num[8]) {
            c   = a > b;
            abs = if c then a - b else b - a;
        }
    "#;

    /// Evaluates the single output `o` of `cdfg` on named inputs.
    fn eval(cdfg: &Cdfg, inputs: &[(&str, i64)]) -> i64 {
        let inputs: BTreeMap<String, i64> =
            inputs.iter().map(|&(name, value)| (name.to_owned(), value)).collect();
        cdfg.evaluate(&inputs)["o"]
    }

    #[test]
    fn parses_abs_diff() {
        let g = compile(ABS_DIFF).unwrap();
        assert_eq!(g.name(), "abs_diff");
        assert_eq!(g.inputs().len(), 2);
        assert_eq!(g.default_bitwidth(), 8);
        assert_eq!(g.outputs().len(), 1);
        assert_eq!(g.op_counts().mux, 1);
    }

    #[test]
    fn parses_precedence() {
        let g = compile("func f(a, b, c) -> (o) { o = a + b * c - 1; }").unwrap();
        // ((a + (b*c)) - 1): 2 + 12 - 1, not (2+3)*4 - 1 or 2 + 3*(4-1).
        assert_eq!(eval(&g, &[("a", 2), ("b", 3), ("c", 4)]), 13);
        let g = compile("func f(a, b, c) -> (o) { o = a - b - c / 2 / 2; }").unwrap();
        // Left-associative: (10 - 4) - ((16/2)/2), not 10 - (4 - 16/(2/2)).
        assert_eq!(eval(&g, &[("a", 10), ("b", 4), ("c", 16)]), 2);
        let g = compile("func f(a, b) -> (o) { o = a + 1 < b * 2; }").unwrap();
        // Comparisons bind loosest: (3 + 1) < (2 * 2), not 3 + (1 < 2) * 2.
        assert_eq!(eval(&g, &[("a", 3), ("b", 2)]), 0);
    }

    #[test]
    fn parses_nested_conditionals_and_parens() {
        let src =
            "func f(a, b) -> (o) { o = if a > b then (if a == b then 1 else 2) else a * (b + 1); }";
        let g = compile(src).unwrap();
        assert_eq!(g.op_counts().mux, 2);
        assert_eq!(eval(&g, &[("a", 5), ("b", 2)]), 2);
        assert_eq!(eval(&g, &[("a", 1), ("b", 2)]), 3);
    }

    #[test]
    fn parses_unary_negation() {
        let g = compile("func f(a) -> (o) { o = -a + 1; }").unwrap();
        // (-a) + 1, not -(a + 1).
        assert_eq!(eval(&g, &[("a", 4)]), -3);
        let g = compile("func f(a) -> (o) { o = - - -a * 2; }").unwrap();
        assert_eq!(g.op_counts().sub, 3, "each minus is one negation");
        assert_eq!(eval(&g, &[("a", 4)]), -8);
    }

    #[test]
    fn parses_multiple_functions() {
        let src = "func f(a) -> (o) { o = a + 1; } func g(b) -> (p) { p = b - 1; }";
        assert_eq!(compile(src).unwrap().name(), "f", "the first, without a `main`");
        let src = "func f(a) -> (o) { o = a + 1; } func main(b) -> (p) { p = b - 1; }";
        assert_eq!(compile(src).unwrap().name(), "main");
    }

    #[test]
    fn missing_semicolon_is_reported() {
        let err = compile("func f(a) -> (o) { o = a + 1 }").unwrap_err();
        match err {
            SilageError::UnexpectedToken { expected, .. } => assert!(expected.contains(";")),
            other => panic!("unexpected error {other:?}"),
        }
        // Comparisons do not chain: the second one stands where `;` belongs.
        let err = compile("func f(a, b) -> (o) { o = a < b < a; }").unwrap_err();
        assert_eq!(
            err,
            SilageError::UnexpectedToken { expected: "`;`".into(), found: TokenKind::Lt, line: 1 }
        );
    }

    #[test]
    fn empty_source_is_reported() {
        assert_eq!(compile("  \n# nothing\n").unwrap_err(), SilageError::EmptyProgram);
    }

    #[test]
    fn bad_bitwidth_is_reported() {
        let err = compile("func f(a: num[0]) -> (o) { o = a; }").unwrap_err();
        assert!(matches!(err, SilageError::UnexpectedToken { .. }));
        let err = compile("func f(a: num[128]) -> (o) { o = a; }").unwrap_err();
        assert!(matches!(err, SilageError::UnexpectedToken { .. }));
    }

    #[test]
    fn empty_parameter_list_is_allowed() {
        let g = compile("func f() -> (o) { o = 1 + 2; }").unwrap();
        assert!(g.inputs().is_empty());
    }

    #[test]
    fn abs_diff_elaborates_and_evaluates() {
        let g = compile(
            "func abs_diff(a, b) -> (abs) { c = a > b; abs = if c then a - b else b - a; }",
        )
        .unwrap();
        assert_eq!(g.op_counts().mux, 1);
        assert_eq!(g.op_counts().comp, 1);
        assert_eq!(g.op_counts().sub, 2);
        let mut inputs = BTreeMap::new();
        inputs.insert("a".to_owned(), 3);
        inputs.insert("b".to_owned(), 10);
        assert_eq!(g.evaluate(&inputs)["abs"], 7);
    }

    #[test]
    fn bitwidth_annotation_is_honoured() {
        let g = compile("func f(a: num[16]) -> (o: num[16]) { o = a + 1; }").unwrap();
        assert_eq!(g.default_bitwidth(), 16);
    }

    #[test]
    fn undefined_name_is_reported_with_line() {
        let err = compile("func f(a) -> (o) {\n o = a + missing;\n}").unwrap_err();
        assert!(
            matches!(err, SilageError::UndefinedName { ref name, line: 2 } if name == "missing")
        );
    }

    /// An undefined name reports its own line, not the first line of its
    /// statement.
    #[test]
    fn undefined_name_on_a_continuation_line_reports_that_line() {
        let err = compile("func f(a) -> (o) {\n o = a +\n missing;\n}").unwrap_err();
        assert_eq!(err, SilageError::UndefinedName { name: "missing".into(), line: 3 });
    }

    /// The parser pulls tokens as it goes, so a lexical error is reported
    /// in source order like any other: never before an error ahead of it.
    #[test]
    fn lexical_errors_come_in_source_order_too() {
        let deep = format!("func f(a) -> (o) {{ o = {}$", "(".repeat(MAX_DEPTH + 1));
        assert_eq!(compile(&deep).unwrap_err(), SilageError::TooDeep { line: 1 });
        let err = compile("func f(a) -> (o) {\n o = a +;\n p = $;\n}").unwrap_err();
        assert!(matches!(err, SilageError::UnexpectedToken { line: 2, .. }), "{err:?}");
        let err = compile("func f(a) -> (o) {\n o = a;\n p = $;\n}").unwrap_err();
        assert_eq!(err, SilageError::UnexpectedChar { ch: '$', line: 3 });
        // An error certain at a name or a `}` wins over a `$` right after.
        let err = compile("func f(a) -> (o) { o = a; o$").unwrap_err();
        assert_eq!(err, SilageError::Reassignment { name: "o".into(), line: 1 });
        let err = compile("func f(a, a$").unwrap_err();
        assert_eq!(err, SilageError::DuplicateDeclaration("a".into()));
        let err = compile("func f(a) -> (o, p) { o = a; }$").unwrap_err();
        assert_eq!(err, SilageError::UnassignedOutput("p".into()));
    }

    #[test]
    fn reassignment_is_rejected() {
        let err = compile("func f(a) -> (o) { o = a; o = a + 1; }").unwrap_err();
        assert!(matches!(err, SilageError::Reassignment { .. }));
    }

    #[test]
    fn unassigned_output_is_rejected() {
        let err = compile("func f(a) -> (o, p) { o = a + 1; }").unwrap_err();
        assert_eq!(err, SilageError::UnassignedOutput("p".to_owned()));
    }

    #[test]
    fn duplicate_parameter_is_rejected() {
        let err = compile("func f(a, a) -> (o) { o = a; }").unwrap_err();
        assert_eq!(err, SilageError::DuplicateDeclaration("a".to_owned()));
        let err = compile("func f(a) -> (a) { a = 1; }").unwrap_err();
        assert_eq!(err, SilageError::DuplicateDeclaration("a".to_owned()));
    }

    #[test]
    fn nested_conditionals_build_nested_muxes() {
        let g = compile(
            "func f(a, b) -> (o) { o = if a > b then (if a == b then a + b else a - b) else a * b; }",
        )
        .unwrap();
        assert_eq!(g.op_counts().mux, 2);
        assert_eq!(g.op_counts().comp, 2);
        // a > b, a != b -> a - b
        assert_eq!(eval(&g, &[("a", 5), ("b", 2)]), 3);
        // a <= b -> a * b
        assert_eq!(eval(&g, &[("a", 1), ("b", 2)]), 2);
    }

    #[test]
    fn negation_and_constants() {
        let g = compile("func f(a) -> (o) { o = -a + 10; }").unwrap();
        assert_eq!(eval(&g, &[("a", 4)]), 6);
    }

    #[test]
    fn intermediate_values_can_be_shared() {
        let g = compile("func f(a, b) -> (o) { s = a + b; c = s > b; o = if c then s else b; }")
            .unwrap();
        // The addition feeds both the comparison and the mux data input.
        assert_eq!(g.op_counts().add, 1);
        assert_eq!(eval(&g, &[("a", 2), ("b", 3)]), 5);
    }

    #[test]
    fn every_comparison_operator_evaluates() {
        let g = compile(
            "func f(a, b) -> (o) {
                o = (a < b) + (a <= b) * 2 + (a > b) * 4 + (a >= b) * 8
                  + (a == b) * 16 + (a != b) * 32;
            }",
        )
        .unwrap();
        assert_eq!(g.op_counts().comp, 6);
        assert_eq!(eval(&g, &[("a", 1), ("b", 2)]), 1 + 2 + 32);
        assert_eq!(eval(&g, &[("a", 2), ("b", 2)]), 2 + 8 + 16);
        assert_eq!(eval(&g, &[("a", 3), ("b", 2)]), 4 + 8 + 32);
    }

    /// The first error in source order wins, whether it is syntactic or
    /// semantic.
    #[test]
    fn the_first_error_in_source_order_is_reported() {
        let err = compile("func f(a, a) -> (o) { o = a }").unwrap_err();
        assert_eq!(err, SilageError::DuplicateDeclaration("a".to_owned()));
        let err = compile("func f(a) -> (o) {\n o = missing;\n o = ;\n}").unwrap_err();
        assert_eq!(err, SilageError::UndefinedName { name: "missing".into(), line: 2 });
        // A syntax error still outranks a later semantic one.
        let err = compile("func f(a) -> (o) {\n o = a +;\n p = missing;\n}").unwrap_err();
        assert!(matches!(err, SilageError::UnexpectedToken { line: 2, .. }), "{err:?}");
    }

    /// A semantic error in any function fails the compile, not only one in
    /// the function returned.
    #[test]
    fn every_function_is_checked() {
        let err =
            compile("func main(a) -> (o) { o = a; } func g(b) -> (p) { p = q; }").unwrap_err();
        assert_eq!(err, SilageError::UndefinedName { name: "q".into(), line: 1 });
        let err = compile("func f(a) -> (o) { o = a; } func main(b) -> (p) { }").unwrap_err();
        assert_eq!(err, SilageError::UnassignedOutput("p".to_owned()));
    }
}
