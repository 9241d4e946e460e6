package repro.feed

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.catalyst.expressions.UnsafeRow
import org.apache.spark.sql.types.StructType

/** The storage-job back end: receives enriched frames and stores them in
  * hash partitions keyed by the record's primary key — the analog of the
  * paper's Hash Partitioner + Storage Partitions (§6.2).
  *
  * Locally, a "storage partition" is an in-memory buffer of records, each
  * held as one binary row (Spark's `UnsafeRow`) rather than a `Row` of
  * boxed values, so a long feed's stored records take little heap; the
  * final dataset is materialized back to a DataFrame for verification
  * queries.
  */
final class StorageSink(val numPartitions: Int = 4, val primaryKey: String = "id") {
  require(numPartitions > 0)

  private val partitions = Array.fill(numPartitions)(ArrayBuffer.empty[UnsafeRow])
  @volatile private var schema: StructType = _
  private var toBinary: ExpressionEncoder.Serializer[Row] = _
  @volatile private var rows: Long = 0L

  /** Append one enriched frame, routing each row to its hash partition. */
  def append(frame: Seq[Row], frameSchema: StructType): Unit = synchronized {
    if (schema == null) {
      schema = frameSchema
      toBinary = ExpressionEncoder(frameSchema).createSerializer()
    } else require(schema == frameSchema,
      s"storage schema changed mid-feed: $schema vs $frameSchema")
    val pkIdx = frameSchema.fieldIndex(primaryKey)
    frame.foreach { r =>
      val p = math.floorMod(String.valueOf(r.get(pkIdx)).hashCode, numPartitions)
      // The serializer reuses its output row, so each record keeps a copy.
      partitions(p) += toBinary(r).asInstanceOf[UnsafeRow].copy()
    }
    rows += frame.size
  }

  def count: Long = rows

  /** Rows per storage partition (for balance assertions). */
  def partitionSizes: Seq[Int] = synchronized(partitions.map(_.size).toSeq)

  /** Materialize the stored dataset. Empty sink ⇒ empty DataFrame with an
    * empty schema is meaningless, so callers must check `count` first.
    */
  def toDf(spark: SparkSession): DataFrame = synchronized {
    require(schema != null, "storage sink is empty — nothing was ingested")
    val toRow = ExpressionEncoder(schema).resolveAndBind().createDeserializer()
    spark.createDataFrame(partitions.iterator.flatten.map(toRow).toList.asJava, schema)
  }
}
