package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, Row, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream

import repro.data.Tweet
import repro.feed.StorageSink

/** Structured Streaming face of the framework: the same computing-job
  * function driven by `foreachBatch` over a micro-batched stream.
  *
  * Each micro-batch re-reads the reference snapshot (Dynamic) before
  * applying the enrichment — the standard Spark recipe for enrichment joins
  * against reference data that changes underneath a stream. The explicit
  * [[IngestionFramework]] and this driver must produce identical rows for
  * identical inputs; a test asserts it.
  */
object StreamingDriver {

  def run(
      spark: SparkSession,
      tweets: Seq[Tweet],
      batchSize: Int,
      spec: EnrichmentSpec,
      mode: RefreshMode,
      stores: RefStoreSet,
      onBatchDone: Int => Unit = _ => ()): StorageSink = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext

    val sink = new StorageSink()
    val stream = MemoryStream[Tweet]

    val staticJava: Option[JavaUdfs.CompiledJavaUdf] = (mode, spec) match {
      case (Static, JavaEnrichment(name)) => Some(JavaUdfs.compile(name, stores.staticRefs))
      case _ => None
    }
    val staticRefs = stores.staticRefs

    val query = stream.toDF().writeStream
      .outputMode("append")
      .foreachBatch { (batchDf: Dataset[Row], _: Long) =>
        val df = batchDf
        if (!df.isEmpty) {
          val enriched: DataFrame = spec match {
            case NoEnrichment => df
            case SqlEnrichment(name) =>
              val refs = if (mode == Dynamic) stores.snapshot else staticRefs
              Enrichments.byName(name)(df, refs)
            case JavaEnrichment(name) =>
              val compiled = staticJava.getOrElse(JavaUdfs.compile(name, stores.snapshot))
              compiled.apply(df)
          }
          sink.append(JobExecution.collectAndRelease(enriched), enriched.schema)
        }
        ()
      }
      .start()

    try {
      var batches = 0
      tweets.grouped(batchSize).foreach { chunk =>
        stream.addData(chunk)
        query.processAllAvailable() // one chunk == one micro-batch
        batches += 1
        onBatchDone(batches)
      }
    } finally {
      query.stop()
      query.awaitTermination()
    }
    sink
  }
}
