//! Which design an index uses.

/// Which of the four designs an index uses (the paper's three plus the
/// learned-routing extension).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexKind {
    /// Design 1 (§3): coarse-grained distribution, two-sided access.
    CoarseGrained,
    /// Design 2 (§4): fine-grained distribution, one-sided access.
    FineGrained,
    /// Design 3 (§5): hybrid.
    Hybrid,
    /// Design 4: learned-index routing over the hybrid layout — clients
    /// additionally hold the trained model.
    Learned,
}

impl IndexKind {
    /// All four designs, in the order every sweep and matrix visits them.
    pub const ALL: [IndexKind; 4] = [
        IndexKind::CoarseGrained,
        IndexKind::FineGrained,
        IndexKind::Hybrid,
        IndexKind::Learned,
    ];

    /// `[key, name, label]` — the one table the three spellings read.
    const fn names(self) -> [&'static str; 3] {
        match self {
            IndexKind::CoarseGrained => ["cg", "coarse-grained", "Coarse-Grained"],
            IndexKind::FineGrained => ["fg", "fine-grained", "Fine-Grained"],
            IndexKind::Hybrid => ["hybrid", "hybrid", "Hybrid"],
            IndexKind::Learned => ["learned", "learned", "Learned"],
        }
    }

    /// Stable short name: CLI flags and env lists (`NAMDEX_DESIGNS=cg,fg`),
    /// counterexample files, artifact names.
    pub const fn key(self) -> &'static str {
        self.names()[0]
    }

    /// Report name (CSV `design` columns).
    pub const fn name(self) -> &'static str {
        self.names()[1]
    }

    /// Display name matching the paper's legends.
    pub const fn label(self) -> &'static str {
        self.names()[2]
    }

    /// Parse [`Self::key`] output.
    pub fn parse(key: &str) -> Option<IndexKind> {
        Self::ALL.into_iter().find(|k| k.key() == key)
    }
}
