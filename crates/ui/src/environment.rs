//! The DSML environment: the registry of application modeling languages.

use crate::session::EditingSession;
use crate::{Result, UiError};
use mddsm_meta::metamodel::Metamodel;
use mddsm_meta::registry::MetamodelRegistry;
use std::sync::Arc;

/// Registry of application DSMLs and factory of editing sessions.
#[derive(Debug, Clone, Default)]
pub struct DsmlEnvironment {
    registry: MetamodelRegistry,
}

impl DsmlEnvironment {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a DSML by its metamodel.
    pub fn register(&mut self, metamodel: Metamodel) {
        self.registry.register(metamodel);
    }

    /// Names of registered DSMLs.
    pub fn dsmls(&self) -> Vec<&str> {
        self.registry.names()
    }

    /// Resolves a DSML metamodel.
    pub fn metamodel(&self, dsml: &str) -> Result<Arc<Metamodel>> {
        self.registry
            .get(dsml)
            .ok_or_else(|| UiError::UnknownDsml(dsml.to_owned()))
    }

    /// Opens an editing session on a fresh, empty model of the DSML.
    pub fn open(&self, dsml: &str) -> Result<EditingSession> {
        Ok(EditingSession::new(self.metamodel(dsml)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mddsm_meta::metamodel::{DataType, MetamodelBuilder};

    fn mm() -> Metamodel {
        MetamodelBuilder::new("toy")
            .class("Thing", |c| c.attr("name", DataType::Str))
            .build()
            .unwrap()
    }

    #[test]
    fn register_and_open() {
        let mut env = DsmlEnvironment::new();
        env.register(mm());
        assert_eq!(env.dsmls(), vec!["toy"]);
        assert!(env.open("toy").is_ok());
        assert!(matches!(env.open("zzz"), Err(UiError::UnknownDsml(_))));
    }
}
