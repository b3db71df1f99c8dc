//! Workspace hygiene: every package under `crates/` and `vendor/` is
//! reachable from the root package `deliba-k`, so no crate or vendored
//! stand-in sits in the workspace that nothing imports, apart from
//! those on [`AWAITING_DELETION`].

use serde::Value;
use std::collections::{HashMap, HashSet};
use std::process::Command;

/// Packages that nothing imports and that await their own deletion
/// change (ROADMAP item 2).  `deliba-blkmq` models the block layer that
/// the engine charges as the calibrated constants `calib::MQ_SCHED` and
/// `calib::MQ_BYPASS`.  The check is exact, so the list must shrink
/// when a package on it goes.
const AWAITING_DELETION: &[&str] = &["deliba-blkmq"];

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("cargo metadata: no `{key}`"))
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("cargo metadata: expected a string, got {other:?}"),
    }
}

fn array_of(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("cargo metadata: expected an array, got {other:?}"),
    }
}

#[test]
fn every_workspace_package_is_reachable_from_the_root() {
    let out = Command::new(env!("CARGO"))
        .args(["metadata", "--offline", "--format-version", "1", "--manifest-path"])
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .output()
        .expect("run cargo metadata");
    assert!(
        out.status.success(),
        "cargo metadata failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let meta: Value = serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();

    // Package id → (name, manifest path relative to the workspace root).
    let root_dir = str_of(field(&meta, "workspace_root"));
    let packages: HashMap<&str, (&str, &str)> = array_of(field(&meta, "packages"))
        .iter()
        .map(|p| {
            let path = str_of(field(p, "manifest_path"));
            let rel = path.strip_prefix(root_dir).unwrap_or(path).trim_start_matches('/');
            (str_of(field(p, "id")), (str_of(field(p, "name")), rel))
        })
        .collect();

    // Resolve edges of every kind (normal, dev, build), walked from the
    // root package.
    let resolve = field(&meta, "resolve");
    let edges: HashMap<&str, Vec<&str>> = array_of(field(resolve, "nodes"))
        .iter()
        .map(|n| {
            let deps = array_of(field(n, "deps")).iter().map(|d| str_of(field(d, "pkg")));
            (str_of(field(n, "id")), deps.collect())
        })
        .collect();
    let root = str_of(field(resolve, "root"));
    assert_eq!(packages[root].0, "deliba-k");
    let mut seen: HashSet<&str> = HashSet::from([root]);
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        for &dep in edges.get(id).into_iter().flatten() {
            if seen.insert(dep) {
                stack.push(dep);
            }
        }
    }

    let mut orphans: Vec<&str> = array_of(field(&meta, "workspace_members"))
        .iter()
        .map(str_of)
        .filter(|id| !seen.contains(id))
        .map(|id| packages[id])
        .filter(|(_, rel)| rel.starts_with("crates/") || rel.starts_with("vendor/"))
        .map(|(name, _)| name)
        .collect();
    orphans.sort_unstable();
    assert_eq!(orphans, AWAITING_DELETION, "workspace packages nothing imports");
}
