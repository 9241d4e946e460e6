package repro.core

import org.apache.spark.sql.DataFrame

/** The computing job of paper §5.1, shared by both drivers
  * ([[IngestionFramework]] and [[StreamingDriver]]): built once per feed,
  * then invoked once per batch with only the batch as a parameter — the
  * predeployed-job optimization.
  *
  * Resolved when the job is built: the enrichment function from
  * [[Enrichments.byName]]; in [[Static]] mode also the feed-start
  * reference snapshot (`stores.staticRefs`) and, for a Java enrichment,
  * the state [[JavaUdfs.compile]] loads from it. Rebound per call in
  * [[Dynamic]] mode: the current reference snapshot (`stores.snapshot`),
  * from which a Java enrichment recompiles its state.
  */
object ComputingJob {

  def apply(spec: EnrichmentSpec, mode: RefreshMode, stores: RefStoreSet): DataFrame => DataFrame =
    (spec, mode) match {
      case (NoEnrichment, _) => identity
      case (SqlEnrichment(name), Dynamic) =>
        val f = Enrichments.byName(name)
        batch => f(batch, stores.snapshot)
      case (SqlEnrichment(name), Static) =>
        val f = Enrichments.byName(name)
        val refs = stores.staticRefs
        batch => f(batch, refs)
      case (JavaEnrichment(name), Dynamic) => batch => JavaUdfs.compile(name, stores.snapshot)(batch)
      case (JavaEnrichment(name), Static) => JavaUdfs.compile(name, stores.staticRefs)
    }
}
