//! The modification-footprint inventory — Table 1 of the paper.
//!
//! The paper's headline engineering claim: "Not including the standalone
//! NCache module, the total number of lines of C code modified in the
//! kernel is fewer than 150", with the server daemon and the buffer cache
//! untouched. This module states the same inventory for the reproduction;
//! its own tests (`hooks::tests`) pin the rows, and the checks `table1` and
//! `daemons_name_no_build` in `tests/structure.rs` verify it *structurally*:
//! the NCache build reuses the unmodified `Filesystem` and `BufferCache` types
//! and differs from the original build only at the initiator's two socket
//! functions, the stack's extended interfaces, and the standalone module;
//! no unmodified crate can name the module, and the daemons' source names
//! no build (`crate::host::ServerHost` holds their per-build bodies).

use crate::mode::ServerMode;

/// One row of the Table 1 inventory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hook {
    /// Kernel component.
    pub component: &'static str,
    /// What the build changes in it.
    pub modification: &'static str,
}

/// The modification footprint of a build, mirroring Table 1.
pub fn modification_footprint(mode: ServerMode) -> Vec<Hook> {
    match mode {
        ServerMode::Original => vec![
            Hook {
                component: "NFS/Web server daemon",
                modification: "None",
            },
            Hook {
                component: "buffer cache",
                modification: "None",
            },
            Hook {
                component: "iSCSI initiator",
                modification: "None",
            },
            Hook {
                component: "network stack",
                modification: "None",
            },
        ],
        ServerMode::NCache => vec![
            Hook {
                component: "NFS/Web server daemon",
                modification: "None",
            },
            Hook {
                component: "buffer cache",
                modification: "None",
            },
            Hook {
                component: "iSCSI initiator",
                modification: "two functions invoking socket interface changed",
            },
            Hook {
                component: "network stack",
                modification: "TCP/IP socket interfaces extended",
            },
            Hook {
                component: "NCache module",
                modification: "standalone loadable module (no kernel lines)",
            },
        ],
        ServerMode::Baseline => vec![
            Hook {
                component: "NFS/Web server daemon",
                modification: "regular-data copy calls removed (measurement build)",
            },
            Hook {
                component: "buffer cache",
                modification: "None",
            },
            Hook {
                component: "iSCSI initiator",
                modification: "regular-data copy calls removed (measurement build)",
            },
            Hook {
                component: "network stack",
                modification: "None",
            },
        ],
    }
}

/// Renders the inventory as the paper's two-column table.
pub fn render_table1() -> String {
    let mut out = String::from("# Table 1: kernel modifications (NCache build)\n");
    out.push_str(&format!("{:<28} {}\n", "Module", "Locations Modified"));
    for hook in modification_footprint(ServerMode::NCache) {
        out.push_str(&format!("{:<28} {}\n", hook.component, hook.modification));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ncache_leaves_daemon_and_buffer_cache_untouched() {
        let rows = modification_footprint(ServerMode::NCache);
        let get = |c: &str| {
            rows.iter()
                .find(|h| h.component == c)
                .expect("row present")
                .modification
        };
        assert_eq!(get("NFS/Web server daemon"), "None");
        assert_eq!(get("buffer cache"), "None");
        assert!(get("iSCSI initiator").contains("two functions"));
        assert!(get("network stack").contains("extended"));
    }

    #[test]
    fn original_touches_nothing() {
        assert!(modification_footprint(ServerMode::Original)
            .iter()
            .all(|h| h.modification == "None"));
    }

    #[test]
    fn baseline_marks_measurement_changes() {
        let rows = modification_footprint(ServerMode::Baseline);
        assert!(rows
            .iter()
            .any(|h| h.modification.contains("measurement build")));
    }

    #[test]
    fn table_renders() {
        let t = render_table1();
        assert!(t.contains("Table 1"));
        assert!(t.contains("buffer cache"));
        assert!(t.contains("None"));
    }
}
