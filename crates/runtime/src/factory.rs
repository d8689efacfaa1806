//! The component factory: named code templates instantiated with metadata
//! from the middleware model (paper §V-A).

use crate::component::Component;
use crate::metadata::Metadata;
use crate::{Result, RuntimeError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A code template: a constructor producing a component from metadata.
pub type Template = Arc<dyn Fn(&Metadata) -> Result<Box<dyn Component>> + Send + Sync>;

/// Registry of code templates, keyed by template name.
///
/// Middleware model objects request components by carrying a `template`
/// attribute naming one of the registered templates; the rest of the
/// object's attributes become the template's [`Metadata`].
#[derive(Clone, Default)]
pub struct ComponentFactory {
    templates: BTreeMap<String, Template>,
}

impl ComponentFactory {
    /// Creates an empty factory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a template under `name`, replacing any previous entry.
    pub fn register<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: Fn(&Metadata) -> Result<Box<dyn Component>> + Send + Sync + 'static,
    {
        self.templates.insert(name.into(), Arc::new(f));
        self
    }

    /// Names of registered templates, sorted.
    pub fn template_names(&self) -> Vec<&str> {
        self.templates.keys().map(String::as_str).collect()
    }

    /// Instantiates a single component from a template.
    pub fn instantiate(&self, template: &str, metadata: &Metadata) -> Result<Box<dyn Component>> {
        let t = self
            .templates
            .get(template)
            .ok_or_else(|| RuntimeError::UnknownTemplate(template.to_owned()))?;
        t(metadata)
    }
}

impl std::fmt::Debug for ComponentFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentFactory")
            .field("templates", &self.template_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Ctx, Message};
    use mddsm_meta::Value;

    struct Echo {
        topic: String,
    }

    impl Component for Echo {
        fn subscriptions(&self) -> Vec<String> {
            vec![self.topic.clone()]
        }
        fn handle(&mut self, _msg: &Message, _ctx: &mut Ctx) -> Result<()> {
            Ok(())
        }
    }

    fn factory() -> ComponentFactory {
        let mut f = ComponentFactory::new();
        f.register("echo", |md| {
            let topic = md.require_str("topic")?.to_owned();
            Ok(Box::new(Echo { topic }) as Box<dyn Component>)
        });
        f
    }

    #[test]
    fn instantiate_known_template() {
        let f = factory();
        let md = Metadata::new().with("topic", Value::from("t"));
        let c = f.instantiate("echo", &md).unwrap();
        assert_eq!(c.subscriptions(), vec!["t"]);
    }

    #[test]
    fn unknown_template_rejected() {
        let f = factory();
        let e = f
            .instantiate("nope", &Metadata::new())
            .map(drop)
            .unwrap_err();
        assert!(matches!(e, RuntimeError::UnknownTemplate(_)));
    }

    #[test]
    fn template_metadata_validation() {
        let f = factory();
        let e = f
            .instantiate("echo", &Metadata::new())
            .map(drop)
            .unwrap_err();
        assert!(matches!(e, RuntimeError::BadMetadata(_)));
    }
}
