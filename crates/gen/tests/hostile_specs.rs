//! Hostile generator and stream spec strings: they arrive from the wire
//! and the command line, so every malformation is a typed [`GenError`],
//! never a panic or a stack overflow, and parse time grows linearly with
//! the text.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gen::{GenError, GenSpec, StreamSpec};

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

const MEGABYTE: usize = 1 << 20;
const BASE: &str = "family=random-dag,seed=1,count=2";

#[test]
fn hostile_specs_are_typed_errors() {
    on_small_stack(|| {
        let long_value = "7".repeat(MEGABYTE);
        let gen_specs = [
            // Megabyte-long field lists.
            format!("{BASE},{}", "x=1,".repeat(MEGABYTE / 4)),
            format!("{BASE},{}", "width=3,".repeat(MEGABYTE / 8)),
            format!("{BASE},{}", "k,".repeat(MEGABYTE / 2)),
            "=".repeat(MEGABYTE),
            ",".repeat(MEGABYTE),
            // Megabyte-long keys and values.
            format!("{BASE},{}=1", "k".repeat(MEGABYTE)),
            format!("family={long_value},seed=1,count=2"),
            format!("family=random-dag,seed={long_value},count=2"),
            format!("family=random-dag,seed=1,count=2,width={long_value}"),
            // Numbers just past their type.
            "family=random-dag,seed=18446744073709551616,count=2".to_owned(),
            format!("family=random-dag,seed=1,count={}", u128::from(u64::MAX) + 1),
            format!("{BASE},width=4294967296"),
            format!("{BASE},mux=65536"),
            format!("{BASE},depth=-1"),
        ];
        for text in &gen_specs {
            let err = GenSpec::parse(text).expect_err("hostile spec is rejected");
            assert!(
                matches!(err, GenError::MalformedSpec(_) | GenError::UnknownFamily(_)),
                "{err:?}"
            );
        }
        let stream_specs = [
            format!("{BASE};events=5;eseed=1"),
            format!("{BASE};events=5,eseed=1;"),
            ";;".to_owned(),
            format!("{BASE};events=5,eseed=18446744073709551616"),
            format!("{BASE};events=5,eseed=1,churn=65536"),
            format!("{BASE};events={long_value},eseed=1"),
            format!("{BASE};{}", "events=5,".repeat(MEGABYTE / 9)),
            format!("{BASE},{};events=5,eseed=1", "x=1,".repeat(MEGABYTE / 4)),
            ";".repeat(MEGABYTE),
        ];
        for text in &stream_specs {
            let err = StreamSpec::parse(text).expect_err("hostile spec is rejected");
            assert!(matches!(err, GenError::MalformedSpec(_)), "{err:?}");
        }
    });
}

fn best_parse_time(text: &str) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(StreamSpec::parse(black_box(text)).expect("spec parses"));
            start.elapsed()
        })
        .min()
        .expect("at least one run")
}

/// A valid stream spec of at least `bytes` bytes: empty fields and spaces
/// in both halves, and a zero-padded seed.
fn padded_spec(bytes: usize) -> String {
    let padding = " , ".repeat(bytes / 9);
    let zeros = "0".repeat(bytes / 3);
    format!("family=random-dag,{padding}seed={zeros}1,count=2;{padding}events=5,eseed=1")
}

/// Parse time is linear in the text: twice the bytes take well under three
/// times as long.  A few rounds absorb scheduling noise on a busy machine.
#[test]
fn doubling_the_spec_less_than_triples_parse_time() {
    on_small_stack(|| {
        let (small, large) = (padded_spec(MEGABYTE / 2), padded_spec(MEGABYTE));
        let mut ratios = Vec::new();
        for _ in 0..3 {
            let ratio =
                best_parse_time(&large).as_secs_f64() / best_parse_time(&small).as_secs_f64();
            if ratio < 3.0 {
                return;
            }
            ratios.push(ratio);
        }
        panic!("spec parse time grew superlinearly with the text: ratios {ratios:?}");
    });
}
