package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanHelper, BroadcastQueryStageExec}
import org.apache.spark.sql.execution.exchange.BroadcastExchangeExec

/** Execution of one computing job's query, followed by the release of the
  * state it built — the analog of an AsterixDB computing job freeing its
  * hash tables when it completes.
  *
  * A broadcast hash join ships its build side as a `TorrentBroadcast` whose
  * blocks stay in the driver's block manager until a full GC lets Spark's
  * `ContextCleaner` find them. A feed runs one query per batch, so without
  * an explicit release every batch's reference side would stay on the
  * driver heap until the next full collection.
  */
object JobExecution extends AdaptiveSparkPlanHelper {

  /** Collects `enriched`, then destroys every broadcast its executed plan
    * built. `enriched` must not be executed again afterwards. A plan
    * without broadcasts is collected and left as it is.
    */
  def collectAndRelease(enriched: DataFrame): Seq[Row] =
    try enriched.collect().toSeq
    finally builtBroadcasts(enriched.queryExecution.executedPlan).foreach(_.destroy())

  /** The broadcasts the exchanges of `plan` built. An adaptive plan holds
    * each in a `BroadcastQueryStageExec` (the stage may wrap a reused
    * exchange); only a materialized stage's `relationFuture` is read, as
    * reading it on a stage that did not run would start a broadcast job.
    * A non-adaptive plan holds the exchanges directly; only an exchange
    * that ran has a completed `completionFuture`.
    */
  private[core] def builtBroadcasts(plan: SparkPlan): Seq[Broadcast[_]] =
    collect(plan) {
      case s: BroadcastQueryStageExec if s.isMaterialized => Some(s.broadcast.relationFuture.get())
      case e: BroadcastExchangeExec => e.completionFuture.value.flatMap(_.toOption)
    }.flatten.distinctBy(_.id)
}
