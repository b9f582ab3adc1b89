//! Property-based tests for the Silage-like frontend: randomly generated
//! programs always compile, and the compiled CDFG agrees with a direct
//! interpretation of a test-local expression tree that the test renders to
//! source.  Hostile input (deep nesting, long flat chains) is a typed error
//! or compiles in linear time, on a small stack.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use silage::{SilageError, MAX_DEPTH};

/// A test-local expression tree, independent of the compiler under test:
/// its nodes in post order (the root last), each naming its operands by
/// index.
#[derive(Debug, Clone)]
struct Expr(Vec<Node>);

#[derive(Debug, Clone, Copy)]
enum Node {
    Number(i64),
    Name(&'static str),
    Neg(usize),
    Binary(&'static str, usize, usize),
    If(usize, usize, usize),
}

impl Expr {
    fn leaf(node: Node) -> Expr {
        Expr(vec![node])
    }

    /// The tree whose root is `node`, built from the roots of `operands`.
    fn join(operands: &[Expr], node: impl FnOnce(&[usize]) -> Node) -> Expr {
        let (mut nodes, mut roots) = (Vec::new(), Vec::new());
        for operand in operands {
            let at = nodes.len();
            nodes.extend(operand.0.iter().map(|&node| match node {
                Node::Neg(x) => Node::Neg(x + at),
                Node::Binary(op, l, r) => Node::Binary(op, l + at, r + at),
                Node::If(c, t, e) => Node::If(c + at, t + at, e + at),
                leaf => leaf,
            }));
            roots.push(nodes.len() - 1);
        }
        nodes.push(node(&roots));
        Expr(nodes)
    }

    fn root(&self) -> usize {
        self.0.len() - 1
    }

    /// Renders node `at` as source.  Compound expressions are
    /// parenthesized, except an `if` where the text around it delimits it:
    /// a condition, a `then` or `else` branch (so `else if` ladders
    /// appear), a right operand and a whole statement.
    fn render(&self, at: usize, bare_if: bool) -> String {
        match self.0[at] {
            Node::Number(n) => n.to_string(),
            Node::Name(name) => name.to_owned(),
            Node::Neg(x) => format!("-{}", self.render(x, false)),
            Node::Binary(op, l, r) => {
                format!("({} {op} {})", self.render(l, false), self.render(r, true))
            }
            Node::If(c, t, e) => {
                let text = format!(
                    "if {} then {} else {}",
                    self.render(c, true),
                    self.render(t, true),
                    self.render(e, true)
                );
                if bare_if {
                    text
                } else {
                    format!("({text})")
                }
            }
        }
    }

    /// Evaluates node `at` with the CDFG's word semantics.
    fn interpret(&self, at: usize, env: &BTreeMap<String, i64>) -> i64 {
        match self.0[at] {
            Node::Number(n) => n,
            Node::Name(name) => env[name],
            Node::Neg(x) => self.interpret(x, env).wrapping_neg(),
            Node::Binary(op, l, r) => {
                let (l, r) = (self.interpret(l, env), self.interpret(r, env));
                match op {
                    "+" => l.wrapping_add(r),
                    "-" => l.wrapping_sub(r),
                    "*" => l.wrapping_mul(r),
                    "/" if r == 0 => 0,
                    "/" => l.wrapping_div(r),
                    "<" => i64::from(l < r),
                    "<=" => i64::from(l <= r),
                    ">" => i64::from(l > r),
                    ">=" => i64::from(l >= r),
                    "==" => i64::from(l == r),
                    "!=" => i64::from(l != r),
                    other => unreachable!("no operator {other}"),
                }
            }
            Node::If(c, t, e) => {
                if self.interpret(c, env) != 0 {
                    self.interpret(t, env)
                } else {
                    self.interpret(e, env)
                }
            }
        }
    }

    /// Number of conditional expressions (each becomes one multiplexor).
    fn conditionals(&self) -> usize {
        self.0.iter().filter(|node| matches!(node, Node::If(..))).count()
    }
}

const OPERATORS: [&str; 10] = ["+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!="];

/// A random expression over a fixed set of input names, kept small so the
/// generated programs stay readable in failure reports.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::leaf(Node::Name("a"))),
        Just(Expr::leaf(Node::Name("b"))),
        Just(Expr::leaf(Node::Name("c"))),
        (0i64..100).prop_map(|n| Expr::leaf(Node::Number(n))),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        let binary = (0..OPERATORS.len(), inner.clone(), inner.clone()).prop_map(|(op, l, r)| {
            Expr::join(&[l, r], |at| Node::Binary(OPERATORS[op], at[0], at[1]))
        });
        let conditional = (inner.clone(), inner.clone(), inner.clone())
            .prop_map(|(c, t, e)| Expr::join(&[c, t, e], |at| Node::If(at[0], at[1], at[2])));
        let negation = inner.prop_map(|x| Expr::join(&[x], |at| Node::Neg(at[0])));
        prop_oneof![binary, conditional, negation]
    })
}

/// The right-hand sides of one to three statements `t<i> = <expr>;`; the
/// output `y` reads the last.
fn program_strategy() -> impl Strategy<Value = Vec<Expr>> {
    prop::collection::vec(expr_strategy(), 1..4)
}

fn render_program(exprs: &[Expr]) -> String {
    let mut body = String::new();
    for (i, expr) in exprs.iter().enumerate() {
        body.push_str(&format!("    t{i} = {};\n", expr.render(expr.root(), true)));
    }
    let last = exprs.len() - 1;
    body.push_str(&format!("    y = t{last} + 0;\n"));
    format!("func generated(a, b, c) -> (y) {{\n{body}}}\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated program compiles to a structurally valid CDFG whose
    /// multiplexor count equals the number of conditionals in the source.
    #[test]
    fn generated_programs_compile(exprs in program_strategy()) {
        let cdfg = silage::compile(&render_program(&exprs)).unwrap();
        prop_assert!(cdfg.validate().is_ok());
        let conditionals: usize = exprs.iter().map(Expr::conditionals).sum();
        prop_assert_eq!(cdfg.op_counts().mux, conditionals);
        prop_assert_eq!(cdfg.inputs().len(), 3);
        prop_assert_eq!(cdfg.outputs().len(), 1);
    }

    /// The compiled CDFG computes the same value as a direct interpretation
    /// of the tree for arbitrary inputs.
    #[test]
    fn elaboration_preserves_semantics(exprs in program_strategy(), a in -50i64..50, b in -50i64..50, c in -50i64..50) {
        let cdfg = silage::compile(&render_program(&exprs)).unwrap();
        let mut env = BTreeMap::new();
        env.insert("a".to_owned(), a);
        env.insert("b".to_owned(), b);
        env.insert("c".to_owned(), c);
        let last = exprs.last().expect("at least one statement");
        let expected = last.interpret(last.root(), &env);
        prop_assert_eq!(cdfg.evaluate(&env)["y"], expected);
    }

    /// Whitespace and comments never change the compiled graph (the lexer
    /// is insensitive to layout; only the recorded line numbers move).
    #[test]
    fn layout_is_irrelevant(exprs in program_strategy()) {
        let source = render_program(&exprs);
        let spaced = source.replace(';', " ;\n  # trailing comment\n");
        let original = silage::compile(&source).unwrap();
        let respaced = silage::compile(&spaced).unwrap();
        prop_assert_eq!(cdfg::dot::to_dot(&original), cdfg::dot::to_dot(&respaced));
    }
}

/// Runs `check` on a thread with a 512 KiB stack, so any recursion that no
/// bound stops overflows here instead of in use.
fn on_small_stack(check: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(512 << 10)
        .spawn(check)
        .expect("thread spawns")
        .join()
        .expect("check passes");
}

/// The recursing constructs, one `(` or `if` opener per line: a
/// parenthesis, an `if` in a condition, in a `then` branch and as an
/// operand.  The third field counts the openers that do not nest: an `if`
/// in a condition or a `then` branch sits inside a first `if` at the top.
const CONSTRUCTS: [(&str, &str, usize); 4] = [
    ("(\n", ")", 0),
    ("if\n", " then 1 else 2", 1),
    ("if a then\n", " else 2", 1),
    ("1 + if a then 1 else\n", "", 0),
];

/// Each recursing construct compiles up to `MAX_DEPTH` levels and is
/// `TooDeep` one level past it, naming the line of the `(` or `if` that
/// opens that level.  Unclosed, the same prefix fails the same way: the
/// parser never recurses past the limit looking for the end.
#[test]
fn nesting_past_the_limit_is_a_typed_error() {
    on_small_stack(|| {
        for (opener, closer, outer) in CONSTRUCTS {
            for depth in 0..=2 * MAX_DEPTH {
                let (open, close) = (opener.repeat(depth + outer), closer.repeat(depth + outer));
                let result =
                    silage::compile(&format!("func f(a) -> (o) {{ o = {open}a{close}; }}"));
                if depth <= MAX_DEPTH {
                    assert!(result.is_ok(), "{opener:?} at depth {depth}: {result:?}");
                } else {
                    let line = (MAX_DEPTH + 1 + outer) as u32;
                    let err = result.unwrap_err();
                    assert_eq!(err, SilageError::TooDeep { line }, "{opener:?} at depth {depth}");
                }
                let unclosed = silage::compile(&format!("func f(a) -> (o) {{ o = {open}"));
                let too_deep = matches!(unclosed, Err(SilageError::TooDeep { .. }));
                assert_eq!(too_deep, depth > MAX_DEPTH, "{opener:?} at depth {depth}");
            }
        }
    });
}

/// A sum of `terms` names, a run of `terms` unary minus signs or an
/// `else if` ladder of `terms` arms.
fn flat(shape: usize, terms: usize) -> String {
    let body = match shape {
        0 => format!("a{}", " + a".repeat(terms - 1)),
        1 => format!("{}a", "-".repeat(terms)),
        _ => {
            let arms: String = (0..terms).map(|i| format!("if a < {i} then {i} else ")).collect();
            format!("{arms}0")
        }
    };
    format!("func f(a) -> (o) {{ o = {body}; }}")
}

/// Long chains are loops, not recursion: each shape compiles at 20,000
/// terms on a small stack.
#[test]
fn long_flat_inputs_compile() {
    on_small_stack(|| {
        let terms = 20_000;
        for (shape, nodes) in [(0, terms + 1), (1, terms + 2), (2, 4 * terms + 3)] {
            let cdfg = silage::compile(&flat(shape, terms)).expect("compiles");
            assert_eq!(cdfg.node_count(), nodes, "shape {shape}");
        }
        let cdfg = silage::compile(&flat(2, 200)).expect("compiles");
        let inputs = BTreeMap::from([("a".to_owned(), 150)]);
        assert_eq!(cdfg.evaluate(&inputs)["o"], 151, "the first true arm wins");
    });
}

fn best_compile_time(source: &str) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(silage::compile(black_box(source)).expect("compiles"));
            start.elapsed()
        })
        .min()
        .expect("at least one run")
}

/// Compile time is linear in the input: twice the terms take well under
/// three times as long, for each flat shape.  A few rounds absorb
/// scheduling noise on a busy machine.
#[test]
fn doubling_the_input_less_than_triples_compile_time() {
    on_small_stack(|| {
        for shape in 0..3 {
            let (small, large) = (flat(shape, 8_000), flat(shape, 16_000));
            let mut ratios = Vec::new();
            for _ in 0..3 {
                let ratio = best_compile_time(&large).as_secs_f64()
                    / best_compile_time(&small).as_secs_f64();
                if ratio < 3.0 {
                    break;
                }
                ratios.push(ratio);
            }
            assert!(ratios.len() < 3, "shape {shape} grew superlinearly: ratios {ratios:?}");
        }
    });
}
