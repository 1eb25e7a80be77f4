//! A SPECweb99-like static-page workload (§5.3, Figure 6a).
//!
//! The file set is organised SPECweb99-style: each directory holds four
//! size *classes* of nine files each (class `c`, file `j` has size
//! `j × 10^c × 0.1 KB`, so one directory totals ≈ 5 MB). The working-set
//! sweep of Figure 6(a) scales the directory count. Directory popularity
//! is Zipf ("The distribution of web page access frequency was in
//! compliance with Zipf's law", §5.3); class weights are tuned so the mean
//! transferred page is ≈ 75 KB, matching the paper.

use sim::rng::SplitMix64;

use crate::zipf::Zipf;
use crate::HttpOp;

/// Files per class per directory.
pub const FILES_PER_CLASS: u32 = 9;
/// Size classes per directory.
pub const CLASSES: u32 = 4;
/// Class access weights (per cent), tuned for a ~75 KB mean page.
pub const CLASS_WEIGHTS: [u32; CLASSES as usize] = [15, 40, 35, 10];

/// Size of file `j` (0-based) in class `c`: `(j+1) × 10^c × 100` bytes.
pub fn file_size(class: u32, j: u32) -> u64 {
    u64::from(j + 1) * 100 * 10u64.pow(class)
}

/// Bytes in one directory (all 36 files).
pub fn dir_size() -> u64 {
    (0..CLASSES)
        .flat_map(|c| (0..FILES_PER_CLASS).map(move |j| file_size(c, j)))
        .sum()
}

/// Flat page name for directory `d`, class `c`, file `j` (single-level
/// namespace: the reproduction's file system uses flat directories).
pub fn page_name(dir: u32, class: u32, j: u32) -> String {
    format!("d{dir:04}_c{class}_f{j}")
}

/// The page set for a given working-set size.
#[derive(Clone, Debug)]
pub struct PageSet {
    dirs: u32,
}

impl PageSet {
    /// A set of `dirs` directories.
    ///
    /// # Panics
    ///
    /// Panics if `dirs` is zero.
    pub fn new(dirs: u32) -> Self {
        assert!(dirs > 0, "need at least one directory");
        PageSet { dirs }
    }

    /// The smallest set of directories totalling at least `bytes`.
    pub fn with_working_set(bytes: u64) -> Self {
        PageSet::new(bytes.div_ceil(dir_size()).max(1) as u32)
    }

    /// Directory count.
    pub fn dirs(&self) -> u32 {
        self.dirs
    }

    /// Total bytes across all pages.
    pub fn total_bytes(&self) -> u64 {
        u64::from(self.dirs) * dir_size()
    }

    /// Every page as `(name, size)` — for populating the server.
    pub fn pages(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity((self.dirs * CLASSES * FILES_PER_CLASS) as usize);
        for d in 0..self.dirs {
            for c in 0..CLASSES {
                for j in 0..FILES_PER_CLASS {
                    out.push((page_name(d, c, j), file_size(c, j)));
                }
            }
        }
        out
    }
}

/// The request generator: Zipf over directories, weighted classes,
/// uniform file within class. Infinite iterator.
#[derive(Clone, Debug)]
pub struct SpecWeb {
    zipf: Zipf,
    rng: SplitMix64,
}

impl SpecWeb {
    /// A generator over `set` with the given seed.
    pub fn new(set: PageSet, seed: u64) -> Self {
        let zipf = Zipf::new(set.dirs() as usize, 1.0);
        SpecWeb {
            zipf,
            rng: SplitMix64::new(seed),
        }
    }

    /// Expected mean page size under the class weights.
    pub fn mean_page_size() -> f64 {
        let total_w: u32 = CLASS_WEIGHTS.iter().sum();
        let mut mean = 0.0;
        for (c, &w) in CLASS_WEIGHTS.iter().enumerate() {
            let class_mean: f64 = (0..FILES_PER_CLASS)
                .map(|j| file_size(c as u32, j) as f64)
                .sum::<f64>()
                / f64::from(FILES_PER_CLASS);
            mean += class_mean * f64::from(w) / f64::from(total_w);
        }
        mean
    }
}

impl Iterator for SpecWeb {
    type Item = HttpOp;

    fn next(&mut self) -> Option<HttpOp> {
        let dir = self.zipf.sample(&mut self.rng) as u32;
        let total_w: u32 = CLASS_WEIGHTS.iter().sum();
        let mut draw = self.rng.next_below(u64::from(total_w)) as u32;
        let mut class = CLASSES - 1;
        for (c, &w) in CLASS_WEIGHTS.iter().enumerate() {
            if draw < w {
                class = c as u32;
                break;
            }
            draw -= w;
        }
        let j = self.rng.next_below(u64::from(FILES_PER_CLASS)) as u32;
        Some(HttpOp {
            path: format!("/{}", page_name(dir, class, j)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_size_is_about_five_megabytes() {
        let s = dir_size();
        assert!(
            (4_900_000..5_100_000).contains(&s),
            "dir size = {s} (expected ≈5 MB)"
        );
    }

    #[test]
    fn mean_page_size_is_about_75_kb() {
        let mean = SpecWeb::mean_page_size();
        assert!(
            (60_000.0..90_000.0).contains(&mean),
            "mean page = {mean} (paper: ≈75 KB)"
        );
    }

    #[test]
    fn empirical_mean_matches() {
        let pages: std::collections::HashMap<String, u64> =
            PageSet::new(100).pages().into_iter().collect();
        let gen = SpecWeb::new(PageSet::new(100), 3);
        let n = 50_000;
        let total: u64 = gen.take(n).map(|op| pages[op.path.trim_start_matches('/')]).sum();
        let mean = total as f64 / n as f64;
        let expect = SpecWeb::mean_page_size();
        assert!(
            (mean - expect).abs() / expect < 0.1,
            "empirical {mean} vs analytic {expect}"
        );
    }

    #[test]
    fn working_set_sizing() {
        let set = PageSet::with_working_set(500 << 20);
        assert_eq!(set.dirs(), (500u64 << 20).div_ceil(dir_size()) as u32);
        assert!(set.total_bytes() >= 500 << 20);
        assert_eq!(PageSet::with_working_set(1).dirs(), 1);
    }

    #[test]
    fn pages_enumerates_whole_set() {
        let set = PageSet::new(3);
        let pages = set.pages();
        assert_eq!(pages.len(), 3 * 36);
        let sum: u64 = pages.iter().map(|(_, s)| s).sum();
        assert_eq!(sum, set.total_bytes());
        // Names are unique.
        let mut names: Vec<&String> = pages.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), pages.len());
    }

    #[test]
    fn requests_reference_real_pages() {
        let set = PageSet::new(5);
        let pages: std::collections::HashMap<String, u64> = set.pages().into_iter().collect();
        let gen = SpecWeb::new(set, 7);
        for op in gen.take(1_000) {
            let name = op.path.trim_start_matches('/');
            assert!(pages.contains_key(name), "unknown page {name}");
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let set = PageSet::new(50);
        let gen = SpecWeb::new(set, 11);
        let mut dir_counts = [0u32; 50];
        for op in gen.take(20_000) {
            let d: usize = op.path[2..6].parse().expect("dir index");
            dir_counts[d] += 1;
        }
        assert!(
            dir_counts[0] > 4 * dir_counts[25].max(1),
            "Zipf head {} vs middle {}",
            dir_counts[0],
            dir_counts[25]
        );
    }

    #[test]
    fn names_fit_the_fs_name_limit() {
        let n = page_name(9999, 3, 8);
        assert!(n.len() <= 27, "{n} is too long for simfs");
    }
}
