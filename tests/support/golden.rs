//! Byte-for-byte golden comparison, shared by the `asrsim` and `repro`
//! golden tests. A mismatch reports a unified diff of the golden file
//! against the actual output. `GOLDEN_BLESS=1` rewrites the golden files
//! from the actual output instead of comparing.

use std::path::Path;

/// Lines of unchanged context around each change in a diff hunk.
const CONTEXT: usize = 3;

/// Compare `actual` with the golden file at `path`, returning the unified
/// diff on a mismatch. Under `GOLDEN_BLESS=1`, write `actual` there instead.
pub fn check(path: &Path, actual: &str) -> Result<(), String> {
    if std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(path, actual)
            .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
        return Ok(());
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read {}: {e} (GOLDEN_BLESS=1 creates it)", path.display())
    });
    if expected == actual {
        Ok(())
    } else {
        Err(unified_diff(&path.display().to_string(), &expected, actual))
    }
}

/// A unified diff of `expected` into `actual`, line by line, over their
/// longest common subsequence of lines.
fn unified_diff(name: &str, expected: &str, actual: &str) -> String {
    let a: Vec<&str> = expected.split_inclusive('\n').collect();
    let b: Vec<&str> = actual.split_inclusive('\n').collect();
    // lcs[i][j]: length of the longest common subsequence of a[i..], b[j..].
    let mut lcs = vec![vec![0u32; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] =
                if a[i] == b[j] { lcs[i + 1][j + 1] + 1 } else { lcs[i + 1][j].max(lcs[i][j + 1]) };
        }
    }
    // The edit script: (line in `a`, line in `b`, ' ' kept / '-' gone / '+' new).
    let mut ops = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if i < a.len() && j < b.len() && a[i] == b[j] {
            ops.push((i, j, ' '));
            i += 1;
            j += 1;
        } else if i < a.len() && (j == b.len() || lcs[i + 1][j] >= lcs[i][j + 1]) {
            ops.push((i, j, '-'));
            i += 1;
        } else {
            ops.push((i, j, '+'));
            j += 1;
        }
    }
    let changed: Vec<usize> = (0..ops.len()).filter(|&k| ops[k].2 != ' ').collect();
    let mut out = format!("--- {name} (golden)\n+++ {name} (actual)\n");
    let mut k = 0;
    while k < changed.len() {
        // One hunk: changes less than two contexts apart share it.
        let start = changed[k].saturating_sub(CONTEXT);
        let mut last = changed[k];
        while k < changed.len() && changed[k] <= last + 2 * CONTEXT {
            last = changed[k];
            k += 1;
        }
        let hunk = &ops[start..(last + CONTEXT + 1).min(ops.len())];
        let old = hunk.iter().filter(|o| o.2 != '+').count();
        let new = hunk.iter().filter(|o| o.2 != '-').count();
        out += &format!("@@ -{},{old} +{},{new} @@\n", hunk[0].0 + 1, hunk[0].1 + 1);
        for &(i, j, tag) in hunk {
            let line = if tag == '+' { b[j] } else { a[i] };
            out.push(tag);
            out.push_str(line);
            if !line.ends_with('\n') {
                out.push_str("\n\\ No newline at end of file\n");
            }
        }
    }
    out
}
