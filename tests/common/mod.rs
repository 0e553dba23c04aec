//! Helpers shared by the integration-test binaries.
#![allow(dead_code)] // each test binary uses a subset of these helpers

use ocep_rng::Rng;
use std::time::{Duration, Instant};

/// One seeded byte-level mutation of `base` (which must not be empty):
/// one to three bytes overwritten, a truncation, or one to fifteen
/// random bytes spliced on. The decoder-robustness suites feed every
/// decoder thousands of these; each must answer `Ok` or `Err`, never
/// panic or hang.
pub fn mutate(rng: &mut Rng, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    match rng.gen_range(0u32..3) {
        0 => {
            let n = rng.gen_range(1usize..4);
            for _ in 0..n {
                let at = rng.gen_range(0usize..bytes.len());
                bytes[at] = rng.next_u32() as u8;
            }
        }
        1 => bytes.truncate(rng.gen_range(0usize..bytes.len())),
        _ => {
            let extra = rng.gen_range(1usize..16);
            for _ in 0..extra {
                bytes.push(rng.next_u32() as u8);
            }
        }
    }
    bytes
}

/// Polls `f` every `poll` until it yields `Ok`, for at most `deadline`
/// wall-clock time — the bounded replacement for bare `sleep` in tests
/// that wait on another process or thread: it resolves as soon as the
/// condition holds instead of a worst-case fixed pause, and it fails
/// with a real deadline instead of flaking when the machine is slow.
///
/// Each unsatisfied poll returns `Err(state)` describing what was
/// actually observed. On deadline exhaustion the helper panics, naming
/// the awaited condition (`what`) and the **last observed state** — so
/// a CI failure log says what the poll saw (an empty port file, the
/// stderr line that arrived instead, a transport error) rather than a
/// bare "deadline exceeded".
pub fn wait_for<T>(
    what: &str,
    deadline: Duration,
    poll: Duration,
    mut f: impl FnMut() -> Result<T, String>,
) -> T {
    let start = Instant::now();
    loop {
        let state = match f() {
            Ok(v) => return v,
            Err(state) => state,
        };
        if start.elapsed() >= deadline {
            panic!("timed out after {deadline:?} waiting for {what}; last observed: {state}");
        }
        std::thread::sleep(poll);
    }
}

/// Pattern sources shaped to take a pattern compiler down, each far
/// past any sane size: 5,000 nested parentheses (parser recursion), a
/// two-leaf `$a || $b && …` chain of 5,000 conjuncts (a tree 5,000
/// deep, which every tree walk recurses through), a 1,000-leaf `->`
/// chain (cubic compile work), and 100 copies of a shallow `||` tree
/// over 64 event variables (constraints that grow with every use).
/// Named for the faults that report them.
pub fn hostile_patterns() -> [(&'static str, String); 4] {
    let nested = format!(
        "A := [*, a, *]; pattern := {}A{};",
        "(".repeat(5_000),
        ")".repeat(5_000)
    );
    let conjuncts = format!(
        "A := [*, a, *]; B := [*, b, *]; A $a; B $b; pattern := {};",
        vec!["$a || $b"; 5_000].join(" && ")
    );
    let chain = format!(
        "A := [*, a, *]; pattern := {};",
        vec!["A"; 1_000].join(" -> ")
    );
    // Ten groups of ten copies keep the tree 83 deep, inside the rule.
    let vars: Vec<String> = (0..64).map(|i| format!("$v{i}")).collect();
    let decls: String = (0..64).map(|i| format!(" A $v{i};")).collect();
    let copy = format!("({})", vars.join(" || "));
    let group = format!("({})", vec![copy; 10].join(" && "));
    let repeated = format!(
        "A := [*, a, *];{decls} pattern := {};",
        vec![group; 10].join(" && ")
    );
    [
        ("nested", nested),
        ("conjuncts", conjuncts),
        ("chain", chain),
        ("repeated", repeated),
    ]
}
