package repro.ideabench

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types.StructType

import repro.core.{Dynamic, Enrichments, IngestionFramework, RefStoreSet, SqlEnrichment}
import repro.data.Tweet
import repro.feed.{FeedSource, PartitionHolder, PartitionHolderManager, StorageSink}

/** What one timed run leaves behind; instants are System.nanoTime. */
final case class RunResult(
    t0: Long,
    t1: Long,
    doneNs: IndexedSeq[Long],
    records: Long,
    sink: StorageSink,
    upserts: IndexedSeq[Upsert],
    jobs: IndexedSeq[JobTrace] = Vector.empty,
    appendNs: IndexedSeq[Long] = Vector.empty) {

  /** Job periods: gaps between consecutive onBatchDone callbacks, the first
    * starting at the run() call.
    */
  def periodsNs: IndexedSeq[Long] = (t0 +: doneNs).sliding(2).collect { case Seq(a, b) => b - a }.toVector

  def throughputRecSec: Double = records * 1e9 / (t1 - t0)
}

/** One traced computing job: span durations (ns) and holder depths. */
final case class JobTrace(
    intakeWaitNs: Long,
    intakeDepth: Int,
    buildNs: Long,
    snapshotNs: Long,
    deltaKeys: Int,
    planNs: Long,
    execNs: Long,
    pushNs: Long,
    storageDepth: Int,
    wallNs: Long) {
  def spansNs: Long = intakeWaitNs + buildNs + snapshotNs + planNs + execNs + pushNs
}

/** Runs the public entry point with the updater, if the workload has one,
  * running from the run() call until run() returns.
  */
object Untraced {
  def run(spark: SparkSession, wl: Workload, tweets: Seq[Tweet], stores: RefStoreSet): RunResult = {
    val done = ArrayBuffer.empty[Long]
    val updater = if (wl.hasUpdater) Some(new Updater(stores.religiousPopulations, wl.upsertsPerSec)) else None
    val t0 = System.nanoTime()
    updater.foreach(_.start(t0))
    var upserts: IndexedSeq[Upsert] = Vector.empty
    val (report, t1) =
      try {
        val r = IngestionFramework.run(spark, tweets, wl.batch, SqlEnrichment(wl.udf), Dynamic, stores,
          queueCapacity = Workload.HolderCapacity, onBatchDone = _ => done += System.nanoTime())
        (r, System.nanoTime())
      } finally upserts = updater.map(_.stop()).getOrElse(Vector.empty)
    RunResult(t0, t1, done.toVector, report.sink.count, report.sink, upserts)
  }
}

/** Drives the calls `IngestionFramework.run` makes, in the same order, and
  * times each one. Used for the per-layer split only; end-to-end figures
  * come from [[Untraced]].
  */
object Traced {
  private val nextId = new AtomicLong()

  def run(spark: SparkSession, wl: Workload, tweets: Seq[Tweet], stores: RefStoreSet): RunResult = {
    val id = nextId.incrementAndGet()
    val intakeHolder = PartitionHolderManager.register(
      new PartitionHolder[Seq[Tweet]](s"ideabench-intake-$id", Workload.HolderCapacity))
    val storageHolder = PartitionHolderManager.register(
      new PartitionHolder[(Seq[Row], StructType)](s"ideabench-storage-$id", Workload.HolderCapacity))
    val sink = new StorageSink()
    val appendNs = ArrayBuffer.empty[Long]
    val jobs = ArrayBuffer.empty[JobTrace]
    val done = ArrayBuffer.empty[Long]
    val udf = Enrichments.byName(wl.udf)
    val sc = spark.sparkContext
    val updater = if (wl.hasUpdater) Some(new Updater(stores.religiousPopulations, wl.upsertsPerSec)) else None
    var upserts: IndexedSeq[Upsert] = Vector.empty
    val (t0, t1, records) = try {
      val storageThread = new Thread(() => {
        var next = storageHolder.pull()
        while (next.isDefined) {
          val (rows, schema) = next.get
          val a0 = System.nanoTime()
          sink.append(rows, schema)
          appendNs += System.nanoTime() - a0
          next = storageHolder.pull()
        }
      }, s"ideabench-storage-$id")
      storageThread.setDaemon(true)

      val t0 = System.nanoTime()
      updater.foreach(_.start(t0))
      storageThread.start()
      val intakeThread = new FeedSource(tweets, wl.batch, None).start(intakeHolder)

      var records = 0L
      var last = t0
      var w0 = System.nanoTime()
      var next = intakeHolder.pull()
      var w1 = System.nanoTime()
      while (next.isDefined) {
        val batch = next.get
        val intakeDepth = intakeHolder.size
        sc.setJobGroup(s"batch-${jobs.size + 1}", "ideabench traced computing job")
        val b0 = System.nanoTime()
        val batchDf = spark.createDataFrame(batch)
        val b1 = System.nanoTime()
        val refs = stores.snapshot
        val s1 = System.nanoTime()
        val deltaKeys = stores.all.map(_.deltaSize).sum
        val p0 = System.nanoTime()
        val enriched = udf(batchDf, refs)
        enriched.queryExecution.executedPlan
        val p1 = System.nanoTime()
        val rows = enriched.collect().toSeq
        val e1 = System.nanoTime()
        storageHolder.push((rows, enriched.schema))
        val q1 = System.nanoTime()
        val storageDepth = storageHolder.size
        records += batch.size
        val now = System.nanoTime()
        jobs += JobTrace(w1 - w0, intakeDepth, b1 - b0, s1 - b1, deltaKeys, p1 - p0, e1 - p1,
          q1 - e1, storageDepth, now - last)
        done += now
        last = now
        w0 = System.nanoTime()
        next = intakeHolder.pull()
        w1 = System.nanoTime()
      }
      sc.clearJobGroup()
      storageHolder.close()
      storageThread.join()
      intakeThread.join()
      (t0, System.nanoTime(), records)
    } finally {
      upserts = updater.map(_.stop()).getOrElse(Vector.empty)
      PartitionHolderManager.unregister(intakeHolder.id)
      PartitionHolderManager.unregister(storageHolder.id)
    }
    // The storage thread was joined, so its appends are visible here.
    RunResult(t0, t1, done.toVector, records, sink, upserts, jobs.toVector, appendNs.toVector)
  }
}

/** Spark's own view of each traced computing job, keyed by the job group
  * `batch-<n>` the traced loop sets: jobs, tasks, task run time and shuffle
  * bytes.
  */
final class GroupStats extends SparkListener {
  final class Counts {
    val jobs = new AtomicLong()
    val tasks = new AtomicLong()
    val taskTimeMs = new AtomicLong()
    val shuffleWriteBytes = new AtomicLong()
    val shuffleReadBytes = new AtomicLong()
  }

  private val FenceGroup = "ideabench-fence"
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val jobGroup = new ConcurrentHashMap[Int, String]()
  private val counts = new ConcurrentHashMap[String, Counts]()
  private val fenceSeen = new CountDownLatch(1)

  def of(group: String): Counts = counts.computeIfAbsent(group, _ => new Counts)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    group.foreach { g =>
      jobGroup.put(e.jobId, g)
      of(g).jobs.incrementAndGet()
      e.stageIds.foreach(stageGroup.put(_, g))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val g = stageGroup.get(e.stageId)
    if (g != null && e.taskMetrics != null) {
      val c = of(g)
      val m = e.taskMetrics
      c.tasks.incrementAndGet()
      c.taskTimeMs.addAndGet(m.executorRunTime)
      c.shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      c.shuffleReadBytes.addAndGet(m.shuffleReadMetrics.totalBytesRead)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (jobGroup.get(e.jobId) == FenceGroup) fenceSeen.countDown()

  /** Runs one job behind every event posted so far and waits until this
    * listener has seen it end: listener events arrive in order, so every
    * earlier task's metrics have been counted by then.
    */
  def drain(spark: SparkSession): Unit = {
    val sc = spark.sparkContext
    sc.setJobGroup(FenceGroup, "ideabench listener fence")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    require(fenceSeen.await(60, TimeUnit.SECONDS), "Spark listener events did not drain within 60 s")
  }
}
