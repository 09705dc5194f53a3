//! Empty on purpose: `puffer-dist` lists `parking_lot` in its manifest but
//! no source file of the crates on the training path names it, so the
//! benchmark's offline build only needs the dependency to resolve.
