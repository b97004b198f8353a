//! Loader for the standard LightGCN-repo dataset format, so the harness
//! can run on the *real* Yelp2018/Amazon-Book/Gowalla/MovieLens logs when
//! they are available (the paper's exact split files are published in that
//! format at `github.com/kuandeng/LightGCN/tree/master/Data` and reused by
//! the BSL authors' repository).
//!
//! Format: one line per user in `train.txt` / `test.txt`:
//!
//! ```text
//! <user_id> <item_id> <item_id> …
//! ```
//!
//! Ids are dense non-negative integers; a user line may be empty (user
//! with no test items).

use crate::dataset::Dataset;
use std::io::BufRead;
use std::path::Path;

/// Errors from dataset loading.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A token that should have been an id failed to parse.
    Parse {
        /// Which file the token came from.
        file: String,
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// Train and test disagree so badly the dataset is unusable (e.g. a
    /// pair present in both splits).
    Inconsistent(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Parse { file, line, token } => {
                write!(f, "{file}:{line}: cannot parse id {token:?}")
            }
            LoadError::Inconsistent(msg) => write!(f, "inconsistent dataset: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

fn parse_file(path: &Path) -> Result<Vec<(u32, u32)>, LoadError> {
    let file_label = path.display().to_string();
    let reader = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut pairs = Vec::new();
    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let mut tokens = line.split_ascii_whitespace();
        let Some(user_tok) = tokens.next() else { continue };
        let user: u32 = user_tok.parse().map_err(|_| LoadError::Parse {
            file: file_label.clone(),
            line: line_no + 1,
            token: user_tok.to_string(),
        })?;
        for tok in tokens {
            let item: u32 = tok.parse().map_err(|_| LoadError::Parse {
                file: file_label.clone(),
                line: line_no + 1,
                token: tok.to_string(),
            })?;
            pairs.push((user, item));
        }
    }
    Ok(pairs)
}

/// Loads a dataset from LightGCN-format `train.txt` / `test.txt` files.
///
/// User and item counts are inferred as `max id + 1` across both splits.
/// Duplicate pairs are binarized; a pair appearing in both splits is an
/// error (it would leak test items into training).
pub fn load_lightgcn_format(
    name: impl Into<String>,
    train_path: impl AsRef<Path>,
    test_path: impl AsRef<Path>,
) -> Result<Dataset, LoadError> {
    let train = parse_file(train_path.as_ref())?;
    let test = parse_file(test_path.as_ref())?;
    if train.is_empty() {
        return Err(LoadError::Inconsistent("empty training split".into()));
    }
    let n_users = train.iter().chain(test.iter()).map(|&(u, _)| u as usize + 1).max().unwrap_or(0);
    let n_items = train.iter().chain(test.iter()).map(|&(_, i)| i as usize + 1).max().unwrap_or(0);
    let ds = Dataset::from_pairs(name, n_users, n_items, &train, &test);
    for u in 0..n_users {
        for &i in ds.test_items(u) {
            if ds.train.contains(u, i) {
                return Err(LoadError::Inconsistent(format!(
                    "pair (user {u}, item {i}) is in both train and test"
                )));
            }
        }
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_tmp(name: &str, contents: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("bsl-loader-test-{}-{name}", std::process::id()));
        let mut f = std::fs::File::create(&path).expect("create temp file");
        f.write_all(contents.as_bytes()).expect("write temp file");
        path
    }

    #[test]
    fn loads_wellformed_files() {
        let train = write_tmp("train-a.txt", "0 1 2 3\n1 0 2\n2 4\n");
        let test = write_tmp("test-a.txt", "0 4\n1 3\n\n");
        let ds = load_lightgcn_format("toy", &train, &test).expect("load");
        assert_eq!(ds.n_users, 3);
        assert_eq!(ds.n_items, 5);
        assert_eq!(ds.train_items(0), &[1, 2, 3]);
        assert_eq!(ds.test_items(1), &[3]);
        assert_eq!(ds.stats().n_train, 6);
        assert_eq!(ds.stats().n_test, 2);
        let _ = std::fs::remove_file(train);
        let _ = std::fs::remove_file(test);
    }

    #[test]
    fn rejects_bad_tokens_with_location() {
        let train = write_tmp("train-b.txt", "0 1\n1 x\n");
        let test = write_tmp("test-b.txt", "0 0\n");
        let err = load_lightgcn_format("bad", &train, &test).unwrap_err();
        match err {
            LoadError::Parse { line, token, .. } => {
                assert_eq!(line, 2);
                assert_eq!(token, "x");
            }
            other => panic!("wrong error: {other}"),
        }
        let _ = std::fs::remove_file(train);
        let _ = std::fs::remove_file(test);
    }

    #[test]
    fn rejects_train_test_leakage() {
        let train = write_tmp("train-c.txt", "0 1 2\n");
        let test = write_tmp("test-c.txt", "0 2\n");
        let err = load_lightgcn_format("leak", &train, &test).unwrap_err();
        assert!(matches!(err, LoadError::Inconsistent(_)), "got {err}");
        let _ = std::fs::remove_file(train);
        let _ = std::fs::remove_file(test);
    }

    #[test]
    fn rejects_empty_train() {
        let train = write_tmp("train-d.txt", "\n\n");
        let test = write_tmp("test-d.txt", "0 0\n");
        let err = load_lightgcn_format("empty", &train, &test).unwrap_err();
        assert!(matches!(err, LoadError::Inconsistent(_)));
        let _ = std::fs::remove_file(train);
        let _ = std::fs::remove_file(test);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_lightgcn_format("nope", "/definitely/not/here.txt", "/also/missing.txt")
            .unwrap_err();
        assert!(matches!(err, LoadError::Io(_)));
    }

    #[test]
    fn loaded_dataset_trains() {
        // A loaded dataset flows through the same pipeline as synthetic
        // ones (popularity, groups, adjacency construction).
        let train = write_tmp("train-e.txt", "0 0 1\n1 1 2\n2 0 2 3\n");
        let test = write_tmp("test-e.txt", "0 2\n1 0\n2 1\n");
        let ds = load_lightgcn_format("flow", &train, &test).expect("load");
        assert_eq!(ds.popularity().len(), ds.n_items);
        let groups = ds.popularity_groups(2);
        assert_eq!(groups.len(), ds.n_items);
        assert_eq!(ds.evaluable_users().len(), 3);
        let _ = std::fs::remove_file(train);
        let _ = std::fs::remove_file(test);
    }
}
