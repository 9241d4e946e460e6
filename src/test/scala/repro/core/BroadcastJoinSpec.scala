package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger

import scala.jdk.CollectionConverters._

import org.apache.spark.SparkEnv
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.optimizer.BuildRight
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.{Exchange, ShuffleExchangeExec}
import org.apache.spark.sql.execution.joins.{BaseJoinExec, BroadcastHashJoinExec}
import org.apache.spark.sql.util.QueryExecutionListener
import org.apache.spark.storage.BroadcastBlockId
import org.scalatest.concurrent.Eventually
import org.scalatest.time.{Seconds, Span}

import repro.{SparkSpec, TestRefs}
import repro.data.TweetData

/** The computing job's join strategy and its release of per-job state:
  * the hash-join enrichments broadcast their reference side under a session
  * with auto-broadcast off, so the batch is never shuffled, and every
  * broadcast a job builds is freed when the job completes.
  */
class BroadcastJoinSpec extends SparkSpec with AdaptiveSparkPlanHelper with Eventually {

  implicit override val patienceConfig: PatienceConfig = PatienceConfig(timeout = Span(30, Seconds))

  private lazy val stores = TestRefs.small(spark)

  private def batch(n: Int): DataFrame = spark.createDataFrame(TweetData.localTweets(n))

  /** The executed (adaptive final) plan of one 420-record computing job. */
  private def finalPlan(udf: String, refs: Refs = stores.snapshot): SparkPlan = {
    val enriched = Enrichments.byName(udf)(batch(420), refs)
    JobExecution.collectAndRelease(enriched)
    enriched.queryExecution.executedPlan
  }

  private def blocksOf(broadcasts: Iterable[Broadcast[_]]): Seq[BroadcastBlockId] = {
    val ids = broadcasts.map(_.id).toSet
    SparkEnv.get.blockManager.getMatchingBlockIds {
      case BroadcastBlockId(id, _) => ids(id)
      case _ => false
    }.collect { case b: BroadcastBlockId => b }.toSeq
  }

  /** Ids of the broadcasts newer than `since` whose driver block still
    * holds a join's hash relation. It reads the block manager, not the
    * plan, so it also sees broadcasts that are gone from the final plan.
    */
  private def relationBlocksSince(since: Long): Seq[Long] = {
    // The trait is package-private to Spark, so it is looked up by name.
    val hashedRelation = Class.forName("org.apache.spark.sql.execution.joins.HashedRelation")
    val bm = SparkEnv.get.blockManager
    bm.getMatchingBlockIds {
      case BroadcastBlockId(id, "") => id > since
      case _ => false
    }.filter(b => bm.getLocalValues(b).exists(_.data.toList.exists(hashedRelation.isInstance)))
      .collect { case BroadcastBlockId(id, _) => id }.toSeq
  }

  private def lastBroadcastId(): Long = {
    val b = spark.sparkContext.broadcast(0)
    b.destroy()
    b.id
  }

  /** Runs `body` and returns its result with every broadcast the queries it
    * executed built. The listener keeps each one reachable, so only an
    * explicit release can drop its blocks; a GC-driven clean-up cannot.
    * Waits until the listener has seen at least `minQueries` queries and
    * `minBroadcasts` broadcasts.
    */
  private def withBuiltBroadcasts[T](minQueries: Int, minBroadcasts: Int)(body: => T): (T, Seq[Broadcast[_]]) = {
    val built = new ConcurrentLinkedQueue[Broadcast[_]]()
    val seen = new AtomicInteger()
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
        JobExecution.builtBroadcasts(qe.executedPlan).foreach(built.add)
        seen.incrementAndGet()
      }
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try {
      val result = body
      eventually {
        assert(seen.get >= minQueries)
        assert(built.asScala.map(_.id).toSet.size >= minBroadcasts)
      }
      (result, built.asScala.toSeq.distinctBy(_.id))
    } finally spark.listenerManager.unregister(listener)
  }

  // --- join strategy -----------------------------------------------------

  test("the session leaves auto-broadcast off, so the hints decide") {
    assert(spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1")
  }

  test("safety_rating at 420 records is a broadcast hash join with no shuffle") {
    val plan = finalPlan("safety_rating")
    assert(collect(plan) { case j: BroadcastHashJoinExec => j }.size == 1, plan.treeString)
    assert(collect(plan) { case e: ShuffleExchangeExec => e }.isEmpty, plan.treeString)
  }

  for (udf <- Seq("religious_population", "largest_religions", "tweet_safety_check", "high_risk_check"))
    test(s"$udf broadcasts its reference side and never exchanges the batch side") {
      val plan = finalPlan(udf)
      val joins = collect(plan) { case j: BroadcastHashJoinExec => j }
      assert(joins.nonEmpty, plan.treeString)
      joins.foreach { j =>
        assert(j.buildSide == BuildRight, j.treeString)
        assert(collect(j.left) { case e: Exchange => e }.isEmpty, j.treeString)
      }
    }

  /** Reference snapshots off the zero-delta path: the stores the three
    * aggregated-side UDFs read each carry a new key and a replaced one.
    */
  private lazy val updatedRefs: Refs = {
    val s = TestRefs.small(spark)
    for (store <- Seq(s.religiousPopulations, s.sensitiveWords)) {
      val first = store.staticSnapshot.head()
      val renamed = Row.fromSeq("new-key" +: first.toSeq.tail)
      store.upsert(Seq(first, renamed))
      assert(store.deltaSize == 2)
    }
    s.snapshot
  }

  private val refVariants = Seq[(String, () => Refs)](
    "a store with a non-empty delta" -> (() => updatedRefs),
    "staticRefs" -> (() => stores.staticRefs))

  for ((refsName, refs) <- refVariants;
       udf <- Seq("religious_population", "largest_religions", "high_risk_check"))
    test(s"$udf derives its reference side with no shuffle, on $refsName") {
      val plan = finalPlan(udf, refs())
      val joins = collect(plan) { case j: BroadcastHashJoinExec => j }
      assert(joins.nonEmpty, plan.treeString)
      joins.foreach(j => assert(collect(j.right) { case e: ShuffleExchangeExec => e }.isEmpty, j.treeString))
    }

  for ((refsName, refs) <- refVariants;
       udf <- Seq("largest_religions", "tweet_safety_check", "high_risk_check"))
    test(s"$udf plans no shuffle at all, on $refsName") {
      val plan = finalPlan(udf, refs())
      assert(collect(plan) { case j: BroadcastHashJoinExec => j }.size == 1, plan.treeString)
      assert(collect(plan) { case e: ShuffleExchangeExec => e }.isEmpty, plan.treeString)
    }

  test("tweet_context joins the batch on its district, never on the tweet id") {
    val plan = finalPlan("tweet_context")
    val joins = collect(plan) { case j: BaseJoinExec => j }
    assert(joins.nonEmpty, plan.treeString)
    joins.foreach { j =>
      val keys = (j.leftKeys ++ j.rightKeys).flatMap(_.references.map(_.name))
      assert(!keys.contains("id"), j.treeString)
    }
  }

  test("the ad-hoc SQL path uses the same broadcast joins") {
    for (name <- PredeployedJob.adhocSql.keys) {
      val enriched = PredeployedJob.adhoc(spark, name, () => stores.snapshot)(batch(420))
      JobExecution.collectAndRelease(enriched)
      val plan = enriched.queryExecution.executedPlan
      val joins = collect(plan) { case j: BroadcastHashJoinExec => j }
      assert(joins.size == 1, plan.treeString)
      assert(collect(joins.head.left) { case e: Exchange => e }.isEmpty, plan.treeString)
    }
  }

  // --- release -----------------------------------------------------------

  test("collectAndRelease returns the rows and frees the broadcast a plain collect keeps") {
    val kept = Enrichments.safetyRating(batch(100), stores.snapshot)
    val keptRows = kept.collect().toSeq
    val keptBroadcasts = JobExecution.builtBroadcasts(kept.queryExecution.executedPlan)
    assert(keptBroadcasts.size == 1)
    assert(blocksOf(keptBroadcasts).nonEmpty, "a plain collect leaves the broadcast blocks in place")
    keptBroadcasts.foreach(_.destroy())

    val released = Enrichments.safetyRating(batch(100), stores.snapshot)
    val rows = JobExecution.collectAndRelease(released)
    assert(rows.map(_.toString).sorted == keptRows.map(_.toString).sorted)
    val freed = JobExecution.builtBroadcasts(released.queryExecution.executedPlan)
    assert(freed.size == 1)
    eventually(assert(blocksOf(freed).isEmpty))
  }

  test("collectAndRelease leaves a plan without broadcasts as it is") {
    val plain = Enrichments.usTweetSafetyCheck(batch(50))
    assert(JobExecution.collectAndRelease(plain).size == 50)
    assert(JobExecution.builtBroadcasts(plain.queryExecution.executedPlan).isEmpty)
  }

  // No reference row matches these tweets: tweet_safety_check and
  // high_risk_check build their broadcast and then find no country in it,
  // and suspicious_names finds no sensitive author.
  for (udf <- Seq("tweet_safety_check", "high_risk_check", "suspicious_names"))
    test(s"$udf on a batch with no matches leaves no broadcast behind") {
      val unmatched = TweetData.localTweets(100).map(_.copy(country = "ZZ", user_name = "nobody"))
      val since = lastBroadcastId()
      val enriched = Enrichments.byName(udf)(spark.createDataFrame(unmatched), stores.snapshot)
      val rows = JobExecution.collectAndRelease(enriched)
      eventually(assert(relationBlocksSince(since).isEmpty))
      // Still using `enriched` keeps its plan, and any broadcast the plan
      // holds, reachable, so a GC-driven clean-up cannot pass the check.
      assert(rows.size == 100 && enriched.queryExecution.executedPlan != null)
    }

  for (mode <- Seq(Dynamic, Static))
    test(s"$mode feed: every broadcast its 21 computing jobs built is gone afterwards") {
      val tweets = TweetData.localTweets(21 * 20)
      val (report, built) = withBuiltBroadcasts(21, 21) {
        IngestionFramework.run(spark, tweets, 20, SqlEnrichment("safety_rating"), mode, TestRefs.small(spark))
      }
      assert(report.batches == 21 && report.sink.count == tweets.size)
      eventually(assert(blocksOf(built).isEmpty))
    }

  for (spec <- Seq(NoEnrichment, JavaEnrichment("safety_rating")); mode <- Seq(Dynamic, Static))
    test(s"$spec $mode feed builds no broadcast and completes unchanged") {
      val tweets = TweetData.localTweets(100)
      val (report, built) = withBuiltBroadcasts(5, 0) {
        IngestionFramework.run(spark, tweets, 20, spec, mode, TestRefs.small(spark))
      }
      assert(report.batches == 5 && report.sink.count == 100)
      assert(report.sink.toDf(spark).select("id").collect().map(_.getLong(0)).toSet == tweets.map(_.id).toSet)
      assert(built.isEmpty)
    }

  test("streaming feed: every broadcast its micro-batches built is gone afterwards") {
    val tweets = TweetData.localTweets(21 * 20)
    val (sink, built) = withBuiltBroadcasts(21, 21) {
      StreamingDriver.run(spark, tweets, 20, SqlEnrichment("safety_rating"), Dynamic, TestRefs.small(spark))
    }
    assert(sink.count == tweets.size)
    eventually(assert(blocksOf(built).isEmpty))
  }
}
