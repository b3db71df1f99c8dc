//! Workspace hygiene: every package under `crates/` and `vendor/` is
//! reachable from the root package `deliba-k`, so no crate or vendored
//! stand-in sits in the workspace that nothing imports; and every
//! `pub fn` / `pub const` in a crate's library has a caller outside that
//! library, so rustc's `dead_code` lint sees everything else.

use serde::Value;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

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
    assert!(orphans.is_empty(), "workspace packages nothing imports: {orphans:?}");
}

/// Names that stay `pub` with no caller outside their crate's library.
/// Each entry needs a reason; today there is none.
const PUB_WITHOUT_OUTSIDE_CALLER: &[&str] = &[];

/// Every `.rs` file under `dir`, recursively (none if `dir` is absent).
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries {
        let path = entry.expect("read_dir entry").path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// The lines of `path` that are not `//` comments.
fn code_lines(path: &Path) -> Vec<String> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .map(str::to_string)
        .collect()
}

fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The name a `pub fn` or `pub const` line declares.
fn pub_fn_or_const(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    let mut is_const = false;
    loop {
        if let Some(r) = rest.strip_prefix("const ") {
            is_const = true;
            rest = r;
        } else if let Some(r) = rest.strip_prefix("unsafe ") {
            rest = r;
        } else {
            break;
        }
    }
    if let Some(r) = rest.strip_prefix("fn ") {
        rest = r;
    } else if !is_const {
        return None;
    }
    identifiers(rest).next()
}

/// Every `pub fn` and `pub const` in `crates/*/src` is named somewhere
/// outside its crate's library: in another crate, in the crate's own
/// `src/bin/` or `tests/` (both link the library from outside), in the
/// root package's `src/` and `tests/`, in `examples/`, or in the
/// separately built `benchmark/` package, whose API use is frozen.  An
/// item no outside file names belongs at `pub(crate)`, where rustc's
/// `dead_code` lint can see whether anything calls it at all.
#[test]
fn every_pub_fn_and_const_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("read_dir entry").path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crates.sort();
    let shared: Vec<PathBuf> = [
        "src",
        "tests",
        "examples",
        "benchmark/src",
        "benchmark/tests",
    ]
    .iter()
    .flat_map(|d| rust_files(&root.join(d)))
    .collect();

    let mut unnamed = Vec::new();
    for krate in &crates {
        let bin = krate.join("src").join("bin");
        let mut callers = shared.clone();
        callers.extend(rust_files(&bin));
        callers.extend(rust_files(&krate.join("tests")));
        for other in crates.iter().filter(|o| *o != krate) {
            callers.extend(rust_files(other));
        }
        let named: HashSet<String> = callers
            .iter()
            .flat_map(|f| code_lines(f))
            .flat_map(|l| identifiers(&l).map(str::to_string).collect::<Vec<_>>())
            .collect();

        let mut lib = rust_files(&krate.join("src"));
        lib.retain(|f| !f.starts_with(&bin));
        lib.sort();
        for file in lib {
            for (i, line) in fs::read_to_string(&file).unwrap().lines().enumerate() {
                if line.trim_start().starts_with("//") {
                    continue;
                }
                let Some(name) = pub_fn_or_const(line) else {
                    continue;
                };
                if !named.contains(name) && !PUB_WITHOUT_OUTSIDE_CALLER.contains(&name) {
                    let rel = file.strip_prefix(root).unwrap_or(&file);
                    unnamed.push(format!("{}:{} {name}", rel.display(), i + 1));
                }
            }
        }
    }
    assert!(
        unnamed.is_empty(),
        "pub items no file outside their crate's library names (make them pub(crate)):\n{}",
        unnamed.join("\n")
    );
}
