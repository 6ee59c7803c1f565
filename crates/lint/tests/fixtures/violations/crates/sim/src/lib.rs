//! Sim fixture: only its manifest matters (the layering rule's target).
