//! Helpers shared by the golden-file tests (`golden_bytes`,
//! `ftcpg_golden`).

use std::path::{Path, PathBuf};

/// The repository root.
pub fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Compares `actual` with the golden file `tests/golden/{name}`, or
/// rewrites the file when `FTES_BLESS_GOLDEN` is set.
pub fn check(name: &str, actual: &str) {
    let path = root().join("tests/golden").join(name);
    if std::env::var_os("FTES_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with FTES_BLESS_GOLDEN=1)", path.display()));
    assert!(
        expected == actual,
        "{name} drifted from its golden bytes\n--- golden\n{expected}\n--- actual\n{actual}"
    );
}

/// The `*.ftes` documents of `dir`, sorted by path.
pub fn spec_paths(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("specs/ directory exists")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "ftes"))
        .collect();
    paths.sort();
    paths
}
