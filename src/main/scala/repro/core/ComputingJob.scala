package repro.core

import org.apache.spark.sql.DataFrame

/** The computing job of paper §5.1, shared by both drivers
  * ([[IngestionFramework]] and [[StreamingDriver]]): built once per feed,
  * then invoked once per batch with only the batch as a parameter — the
  * predeployed-job optimization.
  *
  * The spec names an enrichment of a reference snapshot: an entry of
  * [[Enrichments.byName]] or of [[JavaUdfs.byName]]. In [[Static]] mode it
  * is applied once, when the job is built, to the feed-start snapshot
  * (`stores.staticRefs`), so a Java enrichment loads its state once. In
  * [[Dynamic]] mode it is applied per call to the current snapshot
  * (`stores.snapshot`), from which a Java enrichment reloads its state.
  */
object ComputingJob {

  def apply(spec: EnrichmentSpec, mode: RefreshMode, stores: RefStoreSet): DataFrame => DataFrame =
    spec match {
      case NoEnrichment => identity
      case SqlEnrichment(name) => bind(refs => Enrichments.byName(name)(_, refs), mode, stores)
      case JavaEnrichment(name) => bind(JavaUdfs.byName(name), mode, stores)
    }

  private def bind(enrich: Refs => DataFrame => DataFrame, mode: RefreshMode,
                   stores: RefStoreSet): DataFrame => DataFrame =
    mode match {
      case Dynamic => batch => enrich(stores.snapshot)(batch)
      case Static => enrich(stores.staticRefs)
    }
}
