//! Helpers shared by the integration tests.

/// Compare `got` against the golden file at `path` (relative to the
/// repository root). With `TC_BLESS=1` set, overwrite the file instead;
/// review the diff like any other code change:
///
/// ```text
/// TC_BLESS=1 cargo test --release --test <name>
/// ```
pub fn assert_golden(path: &str, got: &str) {
    if std::env::var_os("TC_BLESS").is_some() {
        std::fs::write(path, got).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("blessed {path}");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with TC_BLESS=1 to create it)"));
    if got != want {
        let diff: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("  -{w}\n  +{g}"))
            .collect();
        panic!(
            "output drifted from {path} — if intentional, rerun with TC_BLESS=1 \
             and commit the new file.\n{}",
            diff.join("\n")
        );
    }
}
