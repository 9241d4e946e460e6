package repro.ideabench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession

import repro.core.RefStoreSet
import repro.data.TweetData
import repro.refstore.ReferenceStore

/** The IDEA benchmark's JVM side: one run of one workload.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * Set-up builds a pinned Spark session, then runs [[SetupRounds]] rounds of
  * (reference stores, warm-up feed, warm-up run through
  * `IngestionFramework.run`). The timed feed is sized from the last round's
  * job period so that the timed run lasts about `--seconds`. With
  * `--trace 0` the timed run is [[Untraced]] and the end-to-end metrics are
  * printed; with `--trace 1` an untraced and a [[Traced]] run of the same
  * feed follow each other and the per-layer metrics are printed. Every run's
  * stored dataset is checked by [[Checks]] after its timed window. The last
  * line of standard output is the result object; the exit code is 1 when a
  * check failed.
  */
object Main {

  val SetupRounds = 3
  val MinJobs = 12
  val MaxJobs = 4000
  /** Per-layer spans must cover at least this share of traced job wall time. */
  val MinCoverage = 0.95
  /** Seed kept out of tuning; a claimed gain must also hold on it. */
  val HeldOutSeed = 9001L

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, out: File)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Opts(need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") match {
        case "0" => false
        case "1" => true
        case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
      },
      new File(kv.getOrElse("out", ".")))
    require(o.seconds > 0, "--seconds must be positive")
    o
  }

  /** The session every run uses, independent of the environment: all
    * cores, and the test harness's 64 shuffle partitions with broadcast
    * joins off.
    */
  def pinnedSession(out: File): SparkSession = {
    val scratch = new File(out, "spark").getAbsolutePath
    SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("ideabench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", scratch)
      .config("spark.sql.warehouse.dir", new File(scratch, "warehouse").getAbsolutePath)
      .getOrCreate()
  }

  def main(args: Array[String]): Unit = {
    val correct =
      try run(parse(args))
      catch {
        case e: Throwable =>
          e.printStackTrace()
          sys.exit(2)
      }
    sys.exit(if (correct) 0 else 1)
  }

  /** One run; prints the result line and returns whether every check passed. */
  def run(o: Opts): Boolean = {
    val wl = Workload.byName(o.workload)
    val procStartMs = ProcessHandle.current().info().startInstant().get().toEpochMilli
    val spark = pinnedSession(o.out)
    spark.sparkContext.setLogLevel("ERROR")
    val sessionS = (System.currentTimeMillis() - procStartMs) / 1000.0

    // Set-up rounds: each builds stores and a warm-up feed and runs it.
    // Kept per round: its duration and its median job period.
    val rounds = (0 until SetupRounds).map { r =>
      val r0 = System.nanoTime()
      val stores = RefStoreSet.create(spark, seed = o.seed)
      val warm = TweetData.localTweets(wl.warmupJobs * wl.batch, o.seed + 1 + r)
      val period = Stats.median(Untraced.run(spark, wl, warm, stores).periodsNs.drop(1).map(_.toDouble))
      (System.nanoTime() - r0, period)
    }
    val warmPeriodNs = rounds.last._2
    val jobs = math.max(MinJobs, math.min(MaxJobs, math.ceil(o.seconds * 1e9 / warmPeriodNs).toInt))
    val f0 = System.nanoTime()
    val tweets = TweetData.localTweets(jobs * wl.batch, o.seed)
    val feedNs = System.nanoTime() - f0
    val setupS = sessionS + (Stats.median(rounds.map(_._1.toDouble)) + feedNs) / 1e9

    val env = environment(spark, wl, o, jobs, tweets.size)
    println(Json.obj("environment" -> env))

    val timedStores = RefStoreSet.create(spark, seed = o.seed)
    ManagementFactory.getMemoryMXBean.gc()
    val untraced = Untraced.run(spark, wl, tweets, timedStores)
    val heapMb = retainedHeapMb()
    val verdicts = Seq.newBuilder[(String, Verdict)]
    verdicts += "untraced" -> Checks.verify(spark, wl, tweets, untraced, timedStores)

    val metrics: Seq[Metric] = if (!o.trace) {
      val v = verdicts.result().head._2
      endToEnd(wl, untraced, v, setupS, heapMb)
    } else {
      val listener = new GroupStats
      spark.sparkContext.addSparkListener(listener)
      val stores = RefStoreSet.create(spark, seed = o.seed)
      val traced = Traced.run(spark, wl, tweets, stores)
      listener.drain(spark)
      spark.sparkContext.removeSparkListener(listener)
      verdicts += "traced" -> Checks.verify(spark, wl, tweets, traced, stores)
      val upserts = if (wl.hasUpdater) traced.upserts else idleUpsertProbe(spark, o.seed)
      perLayer(traced, untraced, listener, upserts)
    }

    val vs = verdicts.result()
    val coverage = metrics.find(_.name == "trace.coverage_pct").map(_.value / 100)
    val coverageNote = coverage.filter(_ < MinCoverage).map(c =>
      f"traced spans cover ${c * 100}%.2f%% of job wall time, below ${MinCoverage * 100}%.0f%%").toSeq
    val attempted = vs.map(_._2.jobs).sum
    val failed = vs.map(_._2.failedJobs.size).sum
    val correct = vs.forall(_._2.correct) && coverageNote.isEmpty
    val detail = Map(
      "failed_batch_share" -> failed.toDouble / math.max(1, attempted),
      "checks" -> vs.map { case (name, v) =>
        Map("run" -> name, "jobs" -> v.jobs, "failed_jobs" -> v.failedJobs.toSeq.sorted,
          "notes" -> (v.notes ++ coverageNote), "freshness_samples" -> v.freshnessNs.size,
          "unshown_upserts" -> v.unshown)
      },
      "refresh_samples" -> untraced.doneNs.size,
      "session_s" -> sessionS,
      "setup_rounds_s" -> rounds.map(_._1 / 1e9),
      "timed_run_s" -> (untraced.t1 - untraced.t0) / 1e9,
      "process_s" -> (System.currentTimeMillis() - procStartMs) / 1000.0)
    println(Json.obj("detail" -> detail))
    if (o.trace) printTable(metrics)

    val result = s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": ${Json.metrics(metrics)}}"""
    writeRecord(o, env, detail, untraced, result)
    println(result)
    spark.stop()
    correct
  }

  private def endToEnd(wl: Workload, run: RunResult, v: Verdict, setupS: Double, heapMb: Double): Seq[Metric] = {
    val periods = run.periodsNs.map(Stats.ms)
    // With an updater: measured from stored rows. Frozen workloads have no
    // upserts, so freshness is the Model 2 bound their job boundaries imply.
    val fresh =
      if (wl.hasUpdater) v.freshnessNs.map(Stats.ms)
      else boundaryFreshnessMs(run)
    Seq(
      Metric("throughput_rec_s", run.throughputRecSec, "rec/s"),
      Metric("refresh_p50_ms", Stats.percentile(periods, 50), "ms"),
      Metric("refresh_p90_ms", Stats.percentile(periods, 90), "ms"),
      Metric("freshness_p50_ms", Stats.percentile(fresh, 50), "ms"),
      Metric("freshness_p90_ms", Stats.percentile(fresh, 90), "ms"),
      Metric("setup_s", setupS, "s"),
      Metric("heap_retained_mb", heapMb, "MB"))
  }

  /** For an upsert acknowledged at an instant `t` while job `k` runs, Model 2
    * guarantees it shows in job `k + 1`; its freshness is then at most
    * `done(k + 1) - t`. Sampled every millisecond from the run() call to the
    * second-to-last onBatchDone.
    */
  def boundaryFreshnessMs(run: RunResult): IndexedSeq[Double] = {
    val starts = run.t0 +: run.doneNs
    (0 until run.doneNs.size - 1).flatMap { k =>
      (starts(k) until run.doneNs(k) by 1000000L).map(t => Stats.ms(run.doneNs(k + 1) - t))
    }
  }

  private def perLayer(traced: RunResult, untraced: RunResult, listener: GroupStats,
                       upserts: IndexedSeq[Upsert]): Seq[Metric] = {
    val js = traced.jobs
    def mean(f: JobTrace => Double) = Stats.mean(js.map(f))
    def ms(name: String, f: JobTrace => Long) = Metric(name, mean(j => Stats.ms(f(j))), "ms")
    val groups = js.indices.map(i => listener.of(s"batch-${i + 1}"))
    def perBatch(f: listener.Counts => Long) = Stats.mean(groups.map(g => f(g).toDouble))
    val quarter = math.max(1, js.size / 4)
    def rise(f: JobTrace => Double) =
      (Stats.median(js.takeRight(quarter).map(f)), Stats.median(js.take(quarter).map(f)))
    val (wallLast, wallFirst) = rise(_.wallNs.toDouble)
    val (deltaLast, deltaFirst) = rise(_.deltaKeys.toDouble)
    Seq(
      ms("feed.intake_wait_ms", _.intakeWaitNs),
      Metric("feed.intake_depth", mean(_.intakeDepth), "frames"),
      ms("feed.storage_push_ms", _.pushNs),
      Metric("feed.storage_depth", mean(_.storageDepth), "frames"),
      Metric("feed.storage_append_ms", Stats.mean(traced.appendNs.map(Stats.ms)), "ms"),
      ms("refstore.snapshot_ms", _.snapshotNs),
      Metric("refstore.delta_keys", mean(_.deltaKeys), "count"),
      Metric("refstore.delta_keys_rise", deltaLast - deltaFirst, "count"),
      Metric("refstore.upsert_ms", Stats.mean(upserts.map(u => Stats.ms(u.callNs))), "ms"),
      Metric("refstore.upsert_lag_ms", Stats.mean(upserts.map(u => Stats.ms(u.lagNs))), "ms"),
      ms("core.build_ms", _.buildNs),
      ms("core.plan_ms", _.planNs),
      ms("core.exec_ms", _.execNs),
      ms("core.unaccounted_ms", j => j.wallNs - j.spansNs),
      Metric("core.refresh_rise_pct", (wallLast / wallFirst - 1) * 100, "%"),
      Metric("spark.jobs_per_batch", perBatch(_.jobs.get), "count"),
      Metric("spark.tasks_per_batch", perBatch(_.tasks.get), "count"),
      Metric("spark.task_time_ms_per_batch", perBatch(_.taskTimeMs.get), "ms"),
      Metric("spark.shuffle_write_bytes_per_batch", perBatch(_.shuffleWriteBytes.get), "bytes"),
      Metric("spark.shuffle_read_bytes_per_batch", perBatch(_.shuffleReadBytes.get), "bytes"),
      Metric("trace.coverage_pct", 100.0 * js.map(_.spansNs).sum / js.map(_.wallNs).sum, "%"),
      Metric("trace.overhead_pct", (1 - traced.throughputRecSec / untraced.throughputRecSec) * 100, "%"))
  }

  /** Workloads without an updater still report the reference store's write
    * path: one second of the open-loop updater against an idle store that no
    * job reads.
    */
  private def idleUpsertProbe(spark: SparkSession, seed: Long): IndexedSeq[Upsert] = {
    val store = ReferenceStore(spark, "UpsertProbe",
      TweetData.religiousPopulations(spark, 10000, seed), "rid")
    val u = new Updater(store, 20.0)
    u.start(System.nanoTime())
    Thread.sleep(1000)
    u.stop()
  }

  private def retainedHeapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    mem.gc()
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  private def environment(spark: SparkSession, wl: Workload, o: Opts, jobs: Int, nTweets: Int): Map[String, Any] =
    Map(
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "spark_version" -> spark.version,
      "scala_version" -> scala.util.Properties.versionNumberString,
      "session_conf" -> spark.conf.getAll.toSeq.sorted.toMap,
      "workload" -> wl.name,
      "udf" -> wl.udf,
      "mode" -> "Dynamic",
      "batch_size" -> wl.batch,
      "holder_capacity" -> Workload.HolderCapacity,
      "upserts_per_s" -> wl.upsertsPerSec,
      "setup_rounds" -> SetupRounds,
      "warmup_jobs_per_round" -> wl.warmupJobs,
      "seed" -> o.seed,
      "held_out_seed" -> HeldOutSeed,
      "seconds" -> o.seconds,
      "trace" -> (if (o.trace) 1 else 0),
      "timed_jobs" -> jobs,
      "timed_tweets" -> nTweets)

  private def printTable(metrics: Seq[Metric]): Unit = {
    println(f"${"per-layer metric (mean per job)"}%-40s ${"value"}%14s  unit")
    metrics.foreach(m => println(f"${m.name}%-40s ${m.value}%14.3f  ${m.unit}"))
  }

  private def writeRecord(o: Opts, env: Map[String, Any], detail: Map[String, Any], untraced: RunResult,
                          result: String): Unit = {
    val dir = new File(o.out, "results")
    dir.mkdirs()
    val w = new PrintWriter(new File(dir, s"${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}.json"))
    try w.println(Json.obj("environment" -> env, "detail" -> detail,
      "refresh_periods_ms" -> untraced.periodsNs.map(Stats.ms)).dropRight(1) + s""", "result": $result}""")
    finally w.close()
  }
}
